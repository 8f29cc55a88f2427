(** One-shot mccd client: connect, send, read hello + reply, close.

    Connections are per-request: the server closes after answering. *)

val request :
  socket:string ->
  Protocol.request ->
  (Protocol.hello * Protocol.reply, string) result
(** Send one compile request to the daemon listening on [socket].
    [Error] covers connect failures (no daemon), protocol mismatches
    (the hello names a different protocol) and framing failures; a
    {e compile} failure is not an [Error] — it comes back as a normal
    reply with [r_ok = false]. *)

val request_or_local :
  socket:string ->
  Protocol.request ->
  [ `Remote of Protocol.hello * Protocol.reply | `Local of bool * string ]
(** The transparent [mcc --remote] path: try the daemon, and on {e any}
    failure to obtain a well-formed reply (daemon absent, protocol
    error) fall back to compiling in-process with {!Service.run} —
    same canonical artifact document either way. *)
