(* The daemon loop, split between two kinds of domain. The front (the
   calling domain) accepts, reads, resolves and looks up every request,
   and answers cache hits and protocol errors on the spot. Misses go to
   a queue served by persistent compile workers, so a hit never waits
   behind a compile. Single-flight rides on the in-flight table: a
   request whose key is already being compiled joins that compile's
   waiters instead of queueing a second one. *)

module Pool = Mac_parallel.Pool

type stats = {
  requests : int;
  hits : int;
  misses : int;
  errors : int;
  unpublished : int;
}

(* A client that connects and goes silent, or stops reading its reply,
   holds the domain serving it at most this long. *)
let io_deadline_s = 2.0

(* Gc.set's minor heap is per-domain on OCaml 5.1. A compile allocates
   heavily, and every minor collection stops all live domains, so the
   workers collect less often than the default 256k words would. The
   workers share one 1M-word budget: 1M words each for two workers
   read 35 MB peak RSS on serve-mixed against 21.5 MB for one, and
   512k each kept it flat. *)
let worker_minor_heap_words workers =
  Stdlib.max (1 lsl 18) ((1 lsl 20) / workers)

(* A worker lowers its own priority so the front wins the CPU: with
   as many workers as cores, serve-mixed's hit p90 at nice 0 read about
   twice the one-worker value, and at nice 10 it read below it. On
   Linux nice(2) applies to the calling thread alone. *)
let worker_nice = 10

let hello_json =
  Protocol.hello_to_json
    {
      Protocol.h_proto = Protocol.proto;
      h_fingerprint = Mac_vpo.Version.compiler_fingerprint;
    }

(* Hello and reply in one write, then close, swallowing I/O errors: a
   client that hung up forfeits its reply, nothing else. *)
let answer fd ~ok ~cached ~key ~body =
  (try
     Protocol.write_frames fd
       [
         hello_json;
         Protocol.reply_to_json
           { Protocol.r_ok = ok; r_cached = cached; r_key = key; r_body = body };
       ]
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* [Error body]: the canonical error document the request is answered
   with. *)
let read_request fd =
  match Protocol.read_frame fd with
  | Error e -> Error (Service.error_body ~kind:"protocol" e)
  | Ok payload -> (
    match Protocol.request_of_json payload with
    | Error e -> Error (Service.error_body ~kind:"protocol" e)
    | Ok req -> (
      match Digest_key.resolve req with
      | Error e -> Error (Service.error_body ~kind:"request" e)
      | Ok rv -> Ok (req, rv)))

(* Everything the front and the workers share, guarded by [m]. A key
   is in [inflight] from the moment its miss is queued until its
   artifact is published; its list holds the connections waiting on
   it, newest first. *)
type shared = {
  m : Mutex.t;
  work : Condition.t;
  queue : (Protocol.request * Digest_key.resolved) Queue.t;
  inflight : (Digest_key.t, Unix.file_descr list) Hashtbl.t;
  mutable closed : bool;
}

type counters = {
  requests : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  errors : int Atomic.t;
  unpublished : int Atomic.t;
}

let add c n = ignore (Atomic.fetch_and_add c n)

(* The next job, blocking while the queue is empty; [None] once the
   front has closed the queue and it is drained. *)
let next_job s =
  Mutex.protect s.m (fun () ->
      while Queue.is_empty s.queue && not s.closed do
        Condition.wait s.work s.m
      done;
      Queue.take_opt s.queue)

let worker s c ~cache ~verdicts ~log ~workers id () =
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = worker_minor_heap_words workers;
    };
  (try ignore (Unix.nice worker_nice) with Unix.Unix_error _ -> ());
  let rec loop () =
    match next_job s with
    | None -> ()
    | Some (req, rv) ->
      let key = rv.Digest_key.r_artifact_key in
      let t0 = Monotonic_clock.now () in
      let ok, body = Service.run ~verdicts ~resolved:rv req in
      (* publish before leaving the in-flight table, so a request that
         no longer finds the key in flight finds it in the cache; a
         disk that refuses the write costs the cache entry, not the
         reply *)
      let unpublished =
        if not ok then None
        else
          match Cache.store cache key body with
          | () -> None
          | exception Sys_error e -> Some e
          | exception Unix.Unix_error (e, fn, _) ->
            Some (fn ^ ": " ^ Unix.error_message e)
      in
      let waiters =
        Mutex.protect s.m (fun () ->
            let w = Hashtbl.find s.inflight key in
            Hashtbl.remove s.inflight key;
            List.rev w)
      in
      (* the first requester is the miss; the rest joined it in flight
         and get its exact bytes as hits *)
      List.iteri
        (fun i fd -> answer fd ~ok ~cached:(i > 0) ~key ~body)
        waiters;
      let n = List.length waiters in
      add c.misses 1;
      add c.hits (n - 1);
      if not ok then add c.errors n;
      if unpublished <> None then add c.unpublished 1;
      log
        (Printf.sprintf
           "worker %d/%d: compile %s: %s%s in %.1f ms, %d waiter(s); totals: \
            %d read / %d hit / %d miss / %d error"
           id workers
           (String.sub key 0 (Stdlib.min 12 (String.length key)))
           (if ok then "ok" else "failed")
           (match unpublished with
           | None -> ""
           | Some e -> " (served, not cached: " ^ e ^ ")")
           (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-6)
           n (Atomic.get c.requests) (Atomic.get c.hits)
           (Atomic.get c.misses) (Atomic.get c.errors));
      loop ()
  in
  loop ()

(* One request from accept to its answer or its place in the queue. *)
let front_request s c ~cache fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_deadline_s;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_deadline_s;
  match read_request fd with
  | Error body ->
    answer fd ~ok:false ~cached:false ~key:"" ~body;
    add c.errors 1
  | Ok (req, rv) -> (
    let key = rv.Digest_key.r_artifact_key in
    (* the in-flight check and the lookup share one critical section:
       a worker publishes before it leaves the table, so a key missing
       from both really has no artifact and no compile under way *)
    let hit =
      Mutex.protect s.m (fun () ->
          match Hashtbl.find_opt s.inflight key with
          | Some w ->
            Hashtbl.replace s.inflight key (fd :: w);
            None
          | None -> (
            match Cache.find cache key with
            | Some body -> Some body
            | None ->
              Hashtbl.replace s.inflight key [ fd ];
              Queue.push (req, rv) s.queue;
              Condition.signal s.work;
              None))
    in
    match hit with
    | Some body ->
      answer fd ~ok:true ~cached:true ~key ~body;
      add c.hits 1
    | None -> ())

let serve ?jobs ?max_requests ?(log = ignore) ?verdicts ~socket ~cache () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let verdicts =
    (* validation verdicts live beside the artifacts: same
       content-addressed store, their own namespace, so an artifact
       eviction does not take the (much smaller) verdict with it *)
    match verdicts with
    | Some v -> v
    | None -> Cache.open_dir (Filename.concat (Cache.dir cache) "verdicts")
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 128;
  let s =
    {
      m = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      inflight = Hashtbl.create 16;
      closed = false;
    }
  in
  let c =
    {
      requests = Atomic.make 0;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      errors = Atomic.make 0;
      unpublished = Atomic.make 0;
    }
  in
  (* one worker per core: the workers run niced, so the front still
     gets the CPU for a hit while every core compiles *)
  let n = Stdlib.max 1 (Option.value jobs ~default:(Pool.jobs ())) in
  let workers =
    List.init n (fun i ->
        Pool.spawn (worker s c ~cache ~verdicts ~log ~workers:n (i + 1)))
  in
  let continue () =
    match max_requests with
    | None -> true
    | Some m -> Atomic.get c.requests < m
  in
  Fun.protect
    ~finally:(fun () ->
      (* queued misses still compile and get their replies *)
      Mutex.protect s.m (fun () ->
          s.closed <- true;
          Condition.broadcast s.work);
      List.iter Domain.join workers;
      (try Unix.close lfd with Unix.Unix_error _ -> ()))
    (fun () ->
      while continue () do
        let fd, _ = Unix.accept lfd in
        add c.requests 1;
        front_request s c ~cache fd
      done);
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  ({
    requests = Atomic.get c.requests;
    hits = Atomic.get c.hits;
    misses = Atomic.get c.misses;
    errors = Atomic.get c.errors;
    unpublished = Atomic.get c.unpublished;
  }
    : stats)
