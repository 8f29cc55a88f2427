(* The serve load-test harness behind BENCH_serve.json.

   Replays a duplicate-heavy compile workload against a freshly started
   mccd daemon from several concurrent client processes and records the
   serve economics: cold-compile vs cache-hit p50/p99 latency, the p50
   speedup (the acceptance bar is >= 10x, gated below), throughput,
   hit rate, and whether the hit path returned bytes identical to the
   cold path. Two phases, separated by a full barrier so the hot phase
   measures the hit path alone:

     cold: every client issues its own run of *distinct* sources —
           all cache misses, each compiled once by a daemon worker;
     hot:  every client re-issues one shared request — all cache hits
           (answered by the daemon's front, never by a worker).

   The daemon runs in a forked child of this process; clients are
   forked too, one process per client, each writing its latency
   samples to a private file the parent aggregates.

   Environment:
     MAC_SERVE_CLIENTS      concurrent client processes (default 4)
     MAC_SERVE_UNIQUE       distinct cold requests per client (default 8)
     MAC_SERVE_HOT          hot requests per client (default 24)
     MAC_SERVE_MIN_SPEEDUP  required cold/hot p50 ratio (default 10)
     MAC_JOBS               daemon domains: the front plus MAC_JOBS-1
                            compile workers (at least 1)
     MAC_JSON_SERVE         output path (default ./BENCH_serve.json) *)

module Serve = Mac_serve
module Protocol = Serve.Protocol
module Report = Serve.Report
module W = Mac_workloads.Workloads

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let clients = env_int "MAC_SERVE_CLIENTS" 4
let unique_per_client = env_int "MAC_SERVE_UNIQUE" 8
let hot_per_client = env_int "MAC_SERVE_HOT" 24
let min_speedup = float_of_int (env_int "MAC_SERVE_MIN_SPEEDUP" 10)

(* hit rate over the whole replay: per mille, so the default (a
   duplicate-heavy burst must be served mostly from cache) stays an
   integer env knob like the others *)
let min_hit_rate = float_of_int (env_int "MAC_SERVE_MIN_HITRATE_PERMILLE" 500) /. 1000.0

let json_path =
  Option.value (Sys.getenv_opt "MAC_JSON_SERVE") ~default:"BENCH_serve.json"

let now () = Unix.gettimeofday ()

(* An expensive, deterministic compile: O4 with the full verifier. *)
let request_of src =
  Protocol.request ~level:Mac_vpo.Pipeline.O4 ~verify:Mac_vpo.Pipeline.Vfull
    ~machine:"alpha" src

let hot_request = request_of (`Bench "image_add")

let cold_request ~client j =
  request_of
    (`Source (W.image_binop_src (Printf.sprintf "k_c%d_%d" client j) "+"))

let die fmt = Fmt.kstr (fun s -> Fmt.epr "serve-bench: %s@." s; exit 1) fmt

(* ------------------------------------------------------------------ *)

let work_dir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcc-serve-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let socket = Filename.concat work_dir "mccd.sock"
let sample_file phase ci = Filename.concat work_dir (Printf.sprintf "%s.%d" phase ci)

let start_daemon () =
  match Unix.fork () with
  | 0 ->
    (try
       let cache = Serve.Cache.open_dir (Filename.concat work_dir "cache") in
       ignore (Serve.Server.serve ~log:ignore ~socket ~cache ())
     with _ -> ());
    Unix._exit 0
  | pid ->
    (* wait until the daemon listens *)
    let deadline = now () +. 10.0 in
    let rec poll () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let up =
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if up then ()
      else if now () > deadline then die "daemon did not come up on %s" socket
      else begin
        Unix.sleepf 0.02;
        poll ()
      end
    in
    poll ();
    pid

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* One client process: issue the requests, log "<seconds> <cached> <ok>"
   lines to its sample file. *)
let run_client ~phase ~ci reqs =
  match Unix.fork () with
  | 0 ->
    let oc = open_out (sample_file phase ci) in
    (try
       List.iter
         (fun req ->
           let t0 = now () in
           match Serve.Client.request ~socket req with
           | Ok (_, reply) ->
             Printf.fprintf oc "%.9f %b %b\n" (now () -. t0)
               reply.Protocol.r_cached reply.Protocol.r_ok
           | Error e -> Printf.fprintf oc "0 false false # %s\n" e)
         reqs
     with _ -> ());
    close_out_noerr oc;
    Unix._exit 0
  | pid -> pid

let run_phase ~phase reqs_of =
  let pids = List.init clients (fun ci -> run_client ~phase ~ci (reqs_of ci)) in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  List.concat
    (List.init clients (fun ci ->
         let ic = open_in (sample_file phase ci) in
         let rec go acc =
           match input_line ic with
           | line -> (
             match String.split_on_char ' ' line with
             | seconds :: cached :: ok :: _ ->
               go
                 (( float_of_string seconds,
                    bool_of_string cached,
                    bool_of_string ok )
                 :: acc)
             | _ -> go acc)
           | exception End_of_file -> List.rev acc
         in
         let samples = go [] in
         close_in_noerr ic;
         samples))

let () =
  Fmt.pr
    "serve load test: %d client(s) x (%d cold + %d hot) requests, daemon \
     %s@."
    clients unique_per_client hot_per_client
    Mac_vpo.Version.compiler_fingerprint;
  let daemon = start_daemon () in
  Fun.protect ~finally:(fun () -> stop_daemon daemon) @@ fun () ->
  (* byte-identity: the same key cold then hot must return identical bytes *)
  let probe req =
    match Serve.Client.request ~socket req with
    | Ok (_, reply) -> reply
    | Error e -> die "probe request failed: %s" e
  in
  let miss = probe hot_request in
  let hit = probe hot_request in
  if miss.Protocol.r_cached then die "probe miss was already cached";
  if not hit.Protocol.r_cached then die "probe hit missed the cache";
  let byte_identical =
    String.equal miss.Protocol.r_body hit.Protocol.r_body
    && miss.r_ok && hit.r_ok
  in
  if not byte_identical then
    die "cache-hit body diverged from the cold-compile body";
  let t0 = now () in
  let cold_samples =
    run_phase ~phase:"cold" (fun ci ->
        List.init unique_per_client (cold_request ~client:ci))
  in
  let hot_samples =
    run_phase ~phase:"hot" (fun _ -> List.init hot_per_client (fun _ -> hot_request))
  in
  let wall = now () -. t0 in
  let all = cold_samples @ hot_samples in
  let failed =
    List.length (List.filter (fun (_, _, ok) -> not ok) all)
  in
  if failed > 0 then die "%d request(s) failed" failed;
  let latencies samples = List.map (fun (s, _, _) -> s) samples in
  (* cold latencies: only true misses (a client's duplicate would distort) *)
  let cold =
    Report.phase_of_samples
      (latencies (List.filter (fun (_, cached, _) -> not cached) cold_samples))
  in
  let hot =
    Report.phase_of_samples
      (latencies (List.filter (fun (_, cached, _) -> cached) hot_samples))
  in
  let requests = List.length all + 2 (* the two probes *) in
  let hits =
    2 - 1 (* probe hit *)
    + List.length (List.filter (fun (_, cached, _) -> cached) all)
  in
  let unique = (clients * unique_per_client) + 1 in
  let report =
    {
      Report.clients;
      requests;
      unique;
      hit_rate = float_of_int hits /. float_of_int requests;
      cold;
      hot;
      p50_speedup = (if hot.Report.p50_ms > 0.0 then cold.Report.p50_ms /. hot.Report.p50_ms else 0.0);
      throughput_rps = float_of_int (List.length all) /. wall;
      wall_seconds = wall;
      byte_identical;
    }
  in
  Fmt.pr
    "cold: p50 %.3f ms, p99 %.3f ms over %d miss(es)@.\
     hot:  p50 %.3f ms, p99 %.3f ms over %d hit(s)@.\
     p50 speedup %.1fx, hit rate %.3f, %.0f req/s, wall %.2f s, \
     byte-identical %b@."
    report.Report.cold.p50_ms report.cold.p99_ms report.cold.n
    report.hot.p50_ms report.hot.p99_ms report.hot.n report.p50_speedup
    report.hit_rate report.throughput_rps report.wall_seconds
    report.byte_identical;
  let json = Report.to_json report in
  (match Report.validate json with
  | Ok _ -> ()
  | Error msg -> die "refusing to write invalid BENCH_serve.json: %s" msg);
  if report.Report.p50_speedup < min_speedup then
    die "p50 speedup %.1fx is below the required %.0fx" report.p50_speedup
      min_speedup;
  if report.Report.hit_rate <= min_hit_rate then
    die "hit rate %.3f is not above the required %.3f" report.hit_rate
      min_hit_rate;
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote %s (validated, schema %s)@." json_path "mac-bench-serve/1"
