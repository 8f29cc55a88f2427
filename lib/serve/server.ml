(* The daemon loop. Batching and single-flight both fall out of the
   same move: drain the accept queue, group the batch's requests by
   cache key, and compile each distinct missing key exactly once on
   the domain pool. Cache hits are answered before the pool dispatch
   so a hot request never waits behind a batch-mate's cold compile. *)

module Pool = Mac_parallel.Pool

type stats = {
  batches : int;
  requests : int;
  hits : int;
  misses : int;
  errors : int;
}

(* A connection whose request survived parsing and key resolution;
   [key = None] marks a request answered with a protocol-level error
   body (it takes no part in dedup or caching). [resolved] carries the
   one-per-request canonical-source digest and derived keys down to
   the compile so nothing re-canonicalizes. *)
type pending = {
  fd : Unix.file_descr;
  key : Digest_key.t option;
  req : (Protocol.request * Digest_key.resolved) option;
  early : (bool * bool * string) option;
      (* (ok, cached, body) decided before the compile dispatch:
         protocol errors and cache hits *)
}

let hello_json =
  Protocol.hello_to_json
    {
      Protocol.h_proto = Protocol.proto;
      h_fingerprint = Mac_vpo.Version.compiler_fingerprint;
    }

(* Reply and close, swallowing I/O errors: a client that hung up
   forfeits its reply, nothing else. *)
let answer fd ~ok ~cached ~key ~body =
  (try
     Protocol.write_frame fd hello_json;
     Protocol.write_frame fd
       (Protocol.reply_to_json
          { Protocol.r_ok = ok; r_cached = cached; r_key = key; r_body = body })
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let read_pending cache fd =
  match Protocol.read_frame fd with
  | Error e ->
    {
      fd;
      key = None;
      req = None;
      early = Some (false, false, Service.error_body ~kind:"protocol" e);
    }
  | Ok payload -> (
    match Protocol.request_of_json payload with
    | Error e ->
      {
        fd;
        key = None;
        req = None;
        early = Some (false, false, Service.error_body ~kind:"protocol" e);
      }
    | Ok req -> (
      match Digest_key.resolve req with
      | Error e ->
        {
          fd;
          key = None;
          req = None;
          early = Some (false, false, Service.error_body ~kind:"request" e);
        }
      | Ok rv -> (
        let key = rv.Digest_key.r_artifact_key in
        match Cache.find cache key with
        | Some body ->
          {
            fd;
            key = Some key;
            req = Some (req, rv);
            early = Some (true, true, body);
          }
        | None -> { fd; key = Some key; req = Some (req, rv); early = None })))

let drain_accept lfd ~max_batch =
  let first, _ = Unix.accept lfd in
  let conns = ref [ first ] in
  let count = ref 1 in
  Unix.set_nonblock lfd;
  (try
     while !count < max_batch do
       let c, _ = Unix.accept lfd in
       conns := c :: !conns;
       incr count
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error (Unix.EINTR, _, _) -> ());
  Unix.clear_nonblock lfd;
  List.rev !conns

let serve ?jobs ?(max_batch = 64) ?max_requests ?(log = ignore) ?verdicts
    ~socket ~cache () =
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
  let batches = ref 0
  and requests = ref 0
  and hits = ref 0
  and misses = ref 0
  and errors = ref 0 in
  let continue () =
    match max_requests with None -> true | Some m -> !requests < m
  in
  (try
     while continue () do
       let conns = drain_accept lfd ~max_batch in
       let pendings = List.map (read_pending cache) conns in
       (* answer protocol errors and cache hits before compiling *)
       List.iter
         (fun p ->
           match p.early with
           | Some (ok, cached, body) ->
             answer p.fd ~ok ~cached
               ~key:(Option.value p.key ~default:"")
               ~body;
             incr requests;
             if cached then incr hits;
             if not ok then incr errors
           | None -> ())
         pendings;
       (* single-flight: one compile per distinct missing key *)
       let waiting = List.filter (fun p -> p.early = None) pendings in
       let distinct =
         List.fold_left
           (fun acc p ->
             match (p.key, p.req) with
             | Some key, Some (req, rv) when not (List.mem_assoc key acc) ->
               (key, (req, rv)) :: acc
             | _ -> acc)
           [] waiting
         |> List.rev
       in
       let compiled =
         Pool.map ?jobs
           (fun (key, (req, rv)) ->
             let ok, body = Service.run ~verdicts ~resolved:rv req in
             (key, ok, body))
           distinct
       in
       List.iter
         (fun (key, ok, body) -> if ok then Cache.store cache key body)
         compiled;
       (* first requester of a key is the miss; duplicates in the same
          batch were deduplicated and count as hits *)
       let seen = Hashtbl.create 8 in
       List.iter
         (fun p ->
           match p.key with
           | None -> ()
           | Some key ->
             let _, ok, body =
               List.find (fun (k, _, _) -> String.equal k key) compiled
             in
             let cached = Hashtbl.mem seen key in
             Hashtbl.replace seen key ();
             answer p.fd ~ok ~cached ~key ~body;
             incr requests;
             if cached then incr hits else incr misses;
             if not ok then incr errors)
         waiting;
       incr batches;
       log
         (Printf.sprintf
            "batch %d: %d request(s), %d compile(s), totals: %d served / %d \
             hit / %d miss / %d error"
            !batches (List.length pendings) (List.length distinct) !requests
            !hits !misses !errors)
     done
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  {
    batches = !batches;
    requests = !requests;
    hits = !hits;
    misses = !misses;
    errors = !errors;
  }
