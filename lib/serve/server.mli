(** The mccd daemon loop: a front that answers hits, and persistent
    compile workers behind it.

    The {e front} is the domain that calls {!serve}. It accepts one
    connection at a time, reads and resolves the request to its
    {!Digest_key}, and answers a cache hit or a protocol error at once.
    A miss is queued to the {e compile workers}, domains spawned once
    when {!serve} starts, and the front goes straight back to
    [accept]: a hit never waits behind a compile.

    Single-flight: a key stays in an in-flight table from the moment
    its miss is queued until its artifact is published. A request for
    a key in flight joins that compile instead of queueing another,
    and gets the miss's exact bytes with [r_cached = true]. The front
    checks the table and the cache under one lock, and a worker
    publishes before it removes the key, so a key is compiled at most
    once per cache lifetime.

    A request that fails — malformed frame, bad JSON, unknown machine,
    front-end error, verification failure — is answered with an
    [ok:false] canonical error body on its own connection; it never
    terminates the daemon and never disturbs other requests (only
    successful compiles enter the cache). A publish the disk refuses
    is still answered: served, not cached. Every accepted socket has
    a read and write deadline of about two seconds, so a client that
    connects and goes silent holds the front no longer than that. *)

type stats = {
  requests : int;  (** requests read (every one is answered) *)
  hits : int;
      (** served without compiling: cache hits + single-flight
          followers *)
  misses : int;  (** compiles actually executed *)
  errors : int;  (** [ok:false] replies *)
  unpublished : int;
      (** successful compiles the cache refused to store: answered,
          not cached *)
}

val serve :
  ?jobs:int ->
  ?max_requests:int ->
  ?log:(string -> unit) ->
  ?verdicts:Cache.t ->
  socket:string ->
  cache:Cache.t ->
  unit ->
  stats
(** Bind the Unix socket (an existing socket file is replaced), ignore
    [SIGPIPE], and serve. With [max_requests], the front stops
    accepting after that many requests have been read, lets the
    workers finish the queue, joins them and returns; without it the
    daemon serves forever and only returns on a fatal listener error.
    [jobs] is the number of compile workers (default
    {!Mac_parallel.Pool.jobs}[ ()], one per core, so a miss waits for
    a core rather than for another client's compile). Each worker
    lowers its own scheduling priority with [nice(2)] when it starts,
    so the front, which answers hits, wins the CPU from the compiles:
    on a 2-core host two workers at equal priority doubled the hits'
    p90 latency. On Linux the nice value belongs to the calling thread
    alone; elsewhere [nice(2)] lowers the whole process, which gives
    the front no priority over the workers and does no harm. The
    workers share one minor-heap budget, so more workers do not raise
    peak RSS. Each worker is pool-owned, so a compile's own
    {!Mac_parallel.Pool.map} runs serially on it and no domain is
    spawned per request. [log] receives one line per compile, naming
    the worker that ran it ([worker 2/2: compile ...]).

    Every request's canonical-source digest is computed once, at
    resolution, and threaded through cache lookup, single-flight
    grouping and the compile itself. [verdicts] is the
    validation-verdict cache handed to {!Service.run} (default: a
    ["verdicts"] subdirectory of the artifact cache), which lets a
    [Vfull] request whose artifact was evicted recompile without
    re-validating. *)
