(** The mccd daemon loop: accept, batch, dedupe, compile, reply.

    One iteration = one {e batch}: a blocking accept for the first
    connection, then a non-blocking drain of the whole accept queue
    (up to [max_batch]). Every connection's request is read and
    resolved to its {!Digest_key}; cache hits are answered
    immediately; the remaining {e distinct} keys — identical in-flight
    requests collapse to one compile here, the single-flight
    guarantee — are compiled in one {!Mac_parallel.Pool.map}
    dispatch over the worker domains; then the misses (and their
    deduplicated followers) get their replies and every connection is
    closed. A request that fails — malformed frame, bad JSON, unknown
    machine, front-end error, verification failure — is answered with
    an [ok:false] canonical error body on its own connection; it never
    terminates the daemon and never disturbs the other requests of
    its batch (only successful compiles enter the cache). *)

type stats = {
  batches : int;  (** batch iterations served *)
  requests : int;  (** requests answered (including failed ones) *)
  hits : int;
      (** served without compiling: cache hits + single-flight
          deduplications *)
  misses : int;  (** compiles actually executed *)
  errors : int;  (** [ok:false] replies *)
}

val serve :
  ?jobs:int ->
  ?max_batch:int ->
  ?max_requests:int ->
  ?log:(string -> unit) ->
  ?verdicts:Cache.t ->
  socket:string ->
  cache:Cache.t ->
  unit ->
  stats
(** Bind the Unix socket (an existing socket file is replaced), ignore
    [SIGPIPE], and serve until [max_requests] requests have been
    answered ([None]: forever — the daemon then only returns on a
    fatal listener error). [jobs] bounds the compile pool (default
    {!Mac_parallel.Pool.jobs}); [max_batch] bounds one drain
    (default 64). [log] receives one line per batch.

    Every request's canonical-source digest is computed once, at
    resolution, and threaded through cache lookup, single-flight
    grouping and the compile itself. [verdicts] is the
    validation-verdict cache handed to {!Service.run} (default: a
    ["verdicts"] subdirectory of the artifact cache), which lets a
    [Vfull] request whose artifact was evicted recompile without
    re-validating. *)
