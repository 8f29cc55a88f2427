(** The mccd wire protocol: length-framed messages over a Unix socket.

    Every message is one {e frame}: a 4-byte big-endian payload length
    followed by that many bytes. A connection carries, in order: the
    client's request frame, the server's hello frame (announcing
    {!proto} and the build's {!Mac_vpo.Version.compiler_fingerprint}),
    and the server's reply frame; the server then closes the
    connection. Requests and hellos are compact JSON
    ({!Mac_workloads.Jsonio} — the same kernel the bench artifacts use,
    so the cache, the wire and the artifacts share one canonical
    format). A reply is a compact JSON header line, [{"ok", "cached",
    "key", "body_bytes"}], one newline, then the artifact body raw,
    exactly the bytes {!Cache} stores. The server writes the hello and
    the reply with one [write]. The client may write its request before
    the hello arrives — the hello is consumed together with the reply —
    and must: the server sends nothing until it has read the request. *)

val proto : string
(** Protocol identifier, ["mac-serve/2"]: a client checks it before it
    reads the reply, so a daemon speaking another version is a
    "protocol mismatch" error, not a reply that fails to parse. *)

(** {1 Messages} *)

type source = [ `Source of string | `Bench of string ]
(** What to compile: inline MiniC source, or a named built-in workload
    ({!Mac_workloads.Workloads.find}) resolved to its source on the
    server — both hash to the same cache key when the text agrees. *)

type request = {
  src : source;
  machine : string;  (** machine description name (alpha, mc88100, ...) *)
  level : Mac_vpo.Pipeline.level;
  verify : Mac_vpo.Pipeline.verify_level;
}

val request :
  ?level:Mac_vpo.Pipeline.level ->
  ?verify:Mac_vpo.Pipeline.verify_level ->
  machine:string ->
  source ->
  request
(** Defaults: [O4], [Vfull] — an unqualified request gets the fully
    validated compile; pass [~verify:Vnone] explicitly to opt out.
    (The incremental validator keeps the always-on default cheap; an
    artifact-evicted request can even reuse a cached validation
    verdict, see {!Service.run}.) *)

type hello = { h_proto : string; h_fingerprint : string }

type reply = {
  r_ok : bool;  (** the compile succeeded (mirrors the body's [ok]) *)
  r_cached : bool;
      (** served without compiling: a cache hit, or single-flight
          deduplication against an identical request whose compile was
          already under way *)
  r_key : string;  (** the {!Digest_key} the request resolved to *)
  r_body : string;
      (** the canonical artifact document ([mac-serve-artifact/3]) —
          byte-identical between the cold-compile path and every
          subsequent cache hit, because the hit returns the stored
          bytes of the miss *)
}

(** {1 Codecs}

    Requests accept their optional fields ([level], [verify]) in any
    order and with either present or absent — {!Digest_key} guarantees
    the permutations hash equal. {!reply_to_json} renders the header
    line and appends the body as it is; {!reply_of_json} returns
    [Error] when there is no newline, the header does not parse or
    lacks a field, or [body_bytes] differs from the length of what
    follows the newline (a truncated reply). *)

val request_to_json : request -> string
val request_of_json : string -> (request, string) result
val hello_to_json : hello -> string
val hello_of_json : string -> (hello, string) result
val reply_to_json : reply -> string
val reply_of_json : string -> (reply, string) result

(** {1 Framing} *)

val write_frame : Unix.file_descr -> string -> unit
(** One frame: 4-byte big-endian length, then the payload, in one
    [write]. *)

val write_frames : Unix.file_descr -> string list -> unit
(** Several frames, in order, in one [write]: the daemon sends its
    hello and its reply this way. *)

val read_frame : Unix.file_descr -> (string, string) result
(** The next frame's payload; [Error] on EOF, a short read, a failed
    or timed-out read (a socket deadline expired), or a length above
    16 MiB, which is rejected rather than allocated. *)
