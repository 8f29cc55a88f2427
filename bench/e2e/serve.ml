(* serve-mixed and serve-churn: a real mccd daemon, a separate process
   with a fresh cache and its default worker pool, driven by closed-loop
   clients (an [mcc --remote] caller blocks on its reply) on at most two
   domains of this process.

   serve-mixed: 80% of requests re-ask one of the 96 keys set-up warmed
   (hits), 20% are novel programs the daemon must compile at Vfull
   (misses), so reads run beside writes and a hit can wait behind a
   batch's compile. Every miss also adds a cache entry, and each store
   scans the whole cache directory. Its latency percentiles are over
   the hits: the misses are a fifth of the requests by construction and
   set the request rate, while the hits' tail is the wait behind a
   compile (head-of-line blocking).

   serve-churn: the artifact cache holds 32 entries and the clients ask
   the 96 warmed keys uniformly, so most requests evict; a miss reuses
   the cached validation verdict and recompiles at Vnone, which keeps
   the validator out of this workload entirely.

   The traced run also replays a prefix of the requests through the
   serve library in this process, one call per layer, for the per-layer
   split. *)

module Protocol = Mac_serve.Protocol
module Client = Mac_serve.Client
module Cache = Mac_serve.Cache
module Service = Mac_serve.Service
module Digest_key = Mac_serve.Digest_key
module Pipeline = Mac_vpo.Pipeline
module J = Mac_workloads.Jsonio

let clients = Stdlib.min 2 (Domain.recommended_domain_count ())
let replay_requests = 600

let max_entries = function
  | Gen.Serve_churn -> Some 32
  | Gen.Serve_mixed | Gen.Paper_sweep | Gen.Compile_grid -> None

(* --- the daemon --------------------------------------------------- *)

(* The daemon side of [bench.exe --serve-daemon]: serve until killed,
   and exit on its own if the benchmark that started it is gone. *)
let daemon_main ~socket ~cache_dir ~max_entries =
  let parent = Unix.getppid () in
  ignore
    (Domain.spawn (fun () ->
         while Unix.getppid () = parent do
           Unix.sleepf 0.2
         done;
         Unix._exit 0));
  let cache = Cache.open_dir ?max_entries cache_dir in
  ignore (Mac_serve.Server.serve ~socket ~cache ())

type daemon = { pid : int; socket : string; cache_dir : string }

(* Exec'd rather than forked, so its peak RSS is its own. *)
let spawn ~exe ~dir ~max_entries tag =
  let base = Filename.concat dir (Printf.sprintf "%d-%s" (Unix.getpid ()) tag) in
  let socket = base ^ ".sock" and cache_dir = base ^ ".cache" in
  Measure.rm_rf cache_dir;
  let args =
    [ exe; "--serve-daemon"; socket; cache_dir ]
    @ Option.to_list (Option.map string_of_int max_entries)
  in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stderr
      Unix.stderr
  in
  { pid; socket; cache_dir }

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  waitpid d.pid;
  Measure.rm_rf d.cache_dir;
  try Unix.unlink d.socket with Unix.Unix_error _ -> ()

(* The first request retries while the daemon is still binding. *)
let rec request_when_up ~socket ~tries req =
  match Client.request ~socket req with
  | Error e when tries > 0 && String.starts_with ~prefix:"connect" e ->
    Unix.sleepf 0.01;
    request_when_up ~socket ~tries:(tries - 1) req
  | r -> r

(* --- set-up ------------------------------------------------------- *)

(* Start a daemon and compile the 96 hot keys through it, keeping each
   body: the bytes every later hit on that key must return. *)
let setup ~host ~exe ~dir ~max_entries ~tally tag =
  Measure.busy host @@ fun () ->
  let d = spawn ~exe ~dir ~max_entries tag in
  match
    Array.mapi
      (fun i req ->
        Host.tick host;
        let r =
          if i = 0 then request_when_up ~socket:d.socket ~tries:1000 req
          else Client.request ~socket:d.socket req
        in
        let name = "warm " ^ Gen.request_name req in
        match Check.reply ~name r with
        | Error e ->
          Check.record tally (Error e);
          ""
        | Ok reply ->
          Check.record tally
            (if reply.r_cached then Error (name ^ ": served from cache")
             else Ok ());
          reply.r_body)
      Gen.hot
  with
  | bodies -> (d, bodies)
  | exception e ->
    stop d;
    raise e

(* --- the measured run --------------------------------------------- *)

type obs = {
  request : Gen.request;
  start_ns : int64;
  dur_ns : int64;
  failure : string option;
  cached : bool;
  body : Digest.t;
  content : Digest.t option;  (** {!Check.content_digest}, churn misses *)
}

(* Once a second the clients park between requests while this domain
   times the host kernel, so the kernel runs while the daemon is idle.
   The whole pause, from asking the clients to park until they resume,
   is left out of the window: it includes the wait for the request each
   client has in flight, during which the load is less than two
   clients. *)
let pause_period = 1.0
let pause_samples = 10

type pause = {
  m : Mutex.t;
  c : Condition.t;
  mutable requested : bool;
  mutable parked : int;  (** clients parked or done *)
  mutable paused_ns : int64;
}

let park p =
  Mutex.lock p.m;
  if p.requested then begin
    p.parked <- p.parked + 1;
    Condition.broadcast p.c;
    while p.requested do
      Condition.wait p.c p.m
    done;
    p.parked <- p.parked - 1
  end;
  Mutex.unlock p.m

let finish p =
  Mutex.lock p.m;
  p.parked <- p.parked + 1;
  Condition.broadcast p.c;
  Mutex.unlock p.m

(* Until every client is done. *)
let rec sampler p host ~deadline =
  Unix.sleepf pause_period;
  Mutex.lock p.m;
  let running = p.parked < clients in
  if running && Measure.before deadline then begin
    let t0 = Span.now_ns () in
    p.requested <- true;
    while p.parked < clients do
      Condition.wait p.c p.m
    done;
    Host.sample host pause_samples;
    p.requested <- false;
    p.paused_ns <- Int64.add p.paused_ns (Int64.sub (Span.now_ns ()) t0);
    Condition.broadcast p.c
  end;
  Mutex.unlock p.m;
  if running then sampler p host ~deadline

let client ~pause ~socket ~deadline ~seed ~w c =
  let next = Gen.stream ~seed ~client:c w in
  let rec loop acc =
    park pause;
    if not (Measure.before deadline) then List.rev acc
    else begin
      let request = next () in
      let start_ns = Span.now_ns () in
      let r = Client.request ~socket request.req in
      let dur_ns = Int64.sub (Span.now_ns ()) start_ns in
      let o =
        match Check.reply ~name:request.label r with
        | Error e ->
          {
            request;
            start_ns;
            dur_ns;
            failure = Some e;
            cached = false;
            body = Digest.string "";
            content = None;
          }
        | Ok reply ->
          {
            request;
            start_ns;
            dur_ns;
            failure = None;
            cached = reply.r_cached;
            body = Digest.string reply.r_body;
            content =
              (if w = Gen.Serve_churn && not reply.r_cached then
                 Some (Check.content_digest reply.r_body)
               else None);
          }
      in
      loop (o :: acc)
    end
  in
  Fun.protect ~finally:(fun () -> finish pause) (fun () -> loop [])

(* Every body a compile of each hot key returned: set-up's, and for
   churn each recompile's. A hit must return one of them. *)
let compiled_bodies bodies =
  let t = Hashtbl.create 128 in
  Array.iteri (fun i b -> Hashtbl.add t i (Digest.string b)) bodies;
  t

let check_obs ~compiled ~contents tally o =
  Check.record tally
    (match (o.failure, o.request.hot, o.cached) with
    | Some e, _, _ -> Error e
    | None, Some i, true ->
      Check.hit ~name:o.request.label ~expected:(Hashtbl.find_all compiled i)
        o.body
    | None, Some i, false -> (
      match o.content with
      | Some c ->
        Check.same ~name:o.request.label ~what:"recompiled artifact"
          ~expected:contents.(i) c
      | None -> Ok ())
    | None, None, true ->
      Error (o.request.label ^ ": novel request served from cache")
    | None, None, false -> Ok ())

(* --- the traced replay -------------------------------------------- *)

let copy_dir src dst =
  Measure.mkdir_p dst;
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat src f) in
      let body =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let oc = open_out_bin (Filename.concat dst f) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc body))
    (Sys.readdir src)

let body_timings body =
  match J.parse body with
  | Ok doc -> (
    match (J.member "compile_seconds" doc, J.member "pass_seconds" doc) with
    | Some (J.Num c), Some (J.Obj ps) ->
      Some
        ( c,
          List.filter_map
            (fun (p, v) -> match v with J.Num s -> Some (p, s) | _ -> None)
            ps )
    | _ -> None)
  | Error _ -> None

(* The daemon's request path, one call per layer: decode, resolve,
   look up, compile and store on a miss, encode the reply. The cache
   starts as set-up left the daemon's, and the verdicts as set-up
   stored them. *)
let replay ~rec_ ~tally ~max_entries ~cache_dir ~verdicts_dir ~bodies
    ~contents requests =
  (* one domain: a novel program's two functions would otherwise compile
     on pool domains, outside this domain's minor-word count *)
  Unix.putenv "MAC_JOBS" "1";
  Measure.rm_rf cache_dir;
  let cache = Cache.open_dir ?max_entries cache_dir in
  Array.iteri
    (fun i body ->
      match Digest_key.of_request Gen.hot.(i) with
      | Ok key -> Cache.store cache key body
      | Error e -> failwith e)
    bodies;
  let verdicts = Cache.open_dir verdicts_dir in
  let compiled = compiled_bodies bodies in
  let evictions = ref 0 and verdict_hits = ref 0 in
  List.iteri
    (fun i (request : Gen.request) ->
      let id = 2_000_000 + i in
      let name = request.label in
      let served =
        Span.time rec_ ~id "replay.request" (fun () ->
            let wire =
              Span.time rec_ ~id "protocol.encode" (fun () ->
                  Protocol.request_to_json request.req)
            in
            match
              Span.time rec_ ~id "protocol.decode" (fun () ->
                  Protocol.request_of_json wire)
            with
            | Error e -> Error e
            | Ok req -> (
              match
                Span.time rec_ ~id "digest_key.resolve" (fun () ->
                    Digest_key.resolve req)
              with
              | Error e -> Error e
              | Ok rv ->
                let key = rv.Digest_key.r_artifact_key in
                let found =
                  Span.time rec_ ~id "cache.find" (fun () -> Cache.find cache key)
                in
                Span.amend rec_ (fun s ->
                    { s with args = [ ("hit", if found = None then 0.0 else 1.0) ] });
                let ok, body =
                  match found with
                  | Some body -> (true, body)
                  | None ->
                    let verdict = Cache.find verdicts rv.r_verdict_key <> None in
                    if verdict then incr verdict_hits;
                    let start_ns = Span.now_ns () in
                    let ok, body =
                      Span.time rec_ ~id "service.run" (fun () ->
                          Service.run ~verdicts ~resolved:rv req)
                    in
                    (match body_timings body with
                    | Some (c, ps) ->
                      Span.derive rec_ ~id ~start_ns [ ("pipeline", c, []) ];
                      Span.derive rec_ ~id ~start_ns
                        (List.map (fun (p, s) -> ("pass." ^ p, s, [])) ps)
                    | None -> ());
                    if ok then begin
                      let before = Cache.entries cache in
                      Span.time rec_ ~id "cache.store" (fun () ->
                          Cache.store cache key body);
                      evictions := !evictions + before + 1 - Cache.entries cache
                    end;
                    (ok, body)
                in
                let reply =
                  {
                    Protocol.r_ok = ok;
                    r_cached = found <> None;
                    r_key = key;
                    r_body = body;
                  }
                in
                let wire =
                  Span.time rec_ ~id "protocol.encode" (fun () ->
                      Protocol.reply_to_json reply)
                in
                Result.map
                  (fun r -> (r, String.length wire))
                  (Span.time rec_ ~id "protocol.decode" (fun () ->
                       Protocol.reply_of_json wire))))
      in
      match served with
      | Error e -> Check.record tally (Error (name ^ ": " ^ e))
      | Ok ((reply : Protocol.reply), bytes) ->
        Span.amend rec_ (fun s ->
            { s with args = [ ("reply_bytes", float_of_int bytes) ] });
        let body = Digest.string reply.r_body in
        if (not reply.r_cached) && reply.r_ok then
          Option.iter (fun h -> Hashtbl.add compiled h body) request.hot;
        check_obs ~compiled ~contents tally
          {
            request;
            start_ns = 0L;
            dur_ns = 0L;
            failure =
              (if reply.r_ok then None
               else Some (name ^ ": compile failed: " ^ reply.r_body));
            cached = reply.r_cached;
            body;
            content =
              (if reply.r_cached || request.hot = None then None
               else Some (Check.content_digest reply.r_body));
          })
    requests;
  let entries = Cache.entries cache in
  Measure.rm_rf cache_dir;
  [
    ("cache.entries", float_of_int entries);
    ("cache.evictions", float_of_int !evictions);
    ("service.verdict_hits", float_of_int !verdict_hits);
  ]

(* --- the workload ------------------------------------------------- *)

let run ~host ~exe ~dir ~seed ~seconds ~setup_reps ~trace w =
  Measure.mkdir_p dir;
  (* the daemon inherits this environment, so this is its pool *)
  let daemon_jobs = Mac_workloads.Pool.jobs () in
  let max_entries = max_entries w in
  let tally = Check.tally () in
  let rec setups k acc =
    let (d, bodies), s =
      setup ~host ~exe ~dir ~max_entries ~tally
        (Printf.sprintf "%s-%d" (Gen.workload_name w) k)
    in
    if k + 1 < setup_reps then begin
      stop d;
      setups (k + 1) (s :: acc)
    end
    else (d, bodies, Array.of_list (List.rev (s :: acc)))
  in
  let d, bodies, setup_s = setups 0 [] in
  let run_dir = Printf.sprintf "%s/%d-replay" dir (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () ->
      stop d;
      Measure.rm_rf (run_dir ^ ".cache");
      Measure.rm_rf (run_dir ^ ".verdicts"))
    (fun () ->
      if trace then
        copy_dir (Filename.concat d.cache_dir "verdicts") (run_dir ^ ".verdicts");
      let deadline = Measure.deadline seconds in
      let pause =
        {
          m = Mutex.create ();
          c = Condition.create ();
          requested = false;
          parked = 0;
          paused_ns = 0L;
        }
      in
      let start = Span.now_ns () in
      let domains =
        List.init clients (fun c ->
            Domain.spawn (fun () ->
                client ~pause ~socket:d.socket ~deadline ~seed ~w c))
      in
      sampler pause host ~deadline;
      let per_client = List.map Domain.join domains in
      let last_ns =
        List.fold_left
          (fun m o -> Stdlib.max m (Int64.add o.start_ns o.dur_ns))
          start (List.concat per_client)
      in
      let elapsed_s =
        Int64.to_float (Int64.sub (Int64.sub last_ns start) pause.paused_ns)
        *. 1e-9
      in
      let peak_rss_mb = Measure.peak_rss_mb (Some d.pid) in
      let all =
        List.sort
          (fun a b -> Int64.compare a.start_ns b.start_ns)
          (List.concat per_client)
      in
      let compiled = compiled_bodies bodies in
      List.iter
        (fun o ->
          match (o.request.hot, o.cached, o.failure) with
          | Some i, false, None -> Hashtbl.add compiled i o.body
          | _ -> ())
        all;
      let contents = Array.map Check.content_digest bodies in
      List.iter (check_obs ~compiled ~contents tally) all;
      let client_recs =
        List.mapi
          (fun c obs ->
            let crec = Span.recorder ~on:trace ~tid:(c + 1) in
            List.iteri
              (fun k o ->
                Span.record crec ~id:((k * clients) + c)
                  ~args:[ ("cached", if o.cached then 1.0 else 0.0) ]
                  "client.request" ~start_ns:o.start_ns ~dur_ns:o.dur_ns)
              obs;
            crec)
          per_client
      in
      let rec_ = Span.recorder ~on:trace ~tid:0 in
      let counts =
        if not trace then []
        else begin
          let requests =
            List.filteri (fun i _ -> i < replay_requests)
              (List.map (fun o -> o.request) all)
          in
          let replayed =
            replay ~rec_ ~tally ~max_entries ~cache_dir:(run_dir ^ ".cache")
              ~verdicts_dir:(run_dir ^ ".verdicts") ~bodies ~contents requests
          in
          (* the compiles set-up asked the daemon for, as the daemon's
             service configures them *)
          replayed
          @ Layers.census rec_
              (Array.to_list
                 (Array.map
                    (fun (r : Protocol.request) ->
                      ( (Result.get_ok (Digest_key.resolve r)).r_source,
                        Pipeline.config ~level:r.level ~verify:r.verify
                          (Option.get (Mac_machine.Machine.by_name r.machine))
                      ))
                    Gen.hot))
        end
      in
      let hits = List.length (List.filter (fun o -> o.cached) all) in
      let ms o = Int64.to_float o.dur_ns *. 1e-6 in
      {
        Measure.setup_s;
        elapsed_s;
        ops = List.length all;
        latencies_ms =
          Array.of_list
            (List.map ms
               (if w = Gen.Serve_mixed then List.filter (fun o -> o.cached) all
                else all));
        peak_rss_mb;
        tally;
        notes =
          [
            Printf.sprintf
              "daemon pool %d domain(s), %d client domain(s), cache cap %s"
              daemon_jobs clients
              (match max_entries with Some n -> string_of_int n | None -> "default");
            Printf.sprintf "%d hit(s), %d miss(es) of %d request(s)" hits
              (List.length all - hits) (List.length all);
          ];
        spans = Span.spans (rec_ :: client_recs);
        counts;
      })
