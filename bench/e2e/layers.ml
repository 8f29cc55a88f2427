(* Per-layer metrics of a traced run.

   Times come from the spans of the measured ops; exact counts come
   from a census that compiles each of the workload's distinct programs
   once, directly through [Lower.compile] and [Pipeline.compile_source],
   so they repeat exactly across seeds. Every workload reports every
   metric; a layer the workload does not reach reports 0.

   Which end-to-end metric each layer should move, and where:
   - minic, pipeline, tvalid: op_ms on compile-grid; ops_per_s and
     op_ms_p90 on serve-mixed (its misses compile at Vfull, and its
     hits wait behind them); pipeline a few percent of paper-sweep;
     tvalid nothing on serve-churn, whose misses reuse a cached
     verdict.
   - coalesce: o4_cycles_geomean, on every workload.
   - interp, workloads: ops_per_s and op_ms on paper-sweep only.
   - protocol, digest_key, cache: op_ms_p50 on both serve workloads;
     server.wait: op_ms_p90 on serve-mixed. *)

module Pipeline = Mac_vpo.Pipeline
module Tvalid = Mac_verify.Tvalid
module Coalesce = Mac_core.Coalesce

(* The names [Pipeline.compiled.pass_seconds] reports. *)
let passes =
  [
    "lower"; "simplify"; "copyprop"; "cse"; "combine"; "cleanflow"; "dce";
    "strength"; "coalesce"; "legalize"; "schedule"; "pipeline-sched";
    "regalloc"; "verify"; "tvalid";
  ]

let pass_metric p = Printf.sprintf "pipeline.pass.%s_ms" p

let names =
  [
    ("minic.compile_ms", "ms");
    ("minic.minor_words", "words");
    ("pipeline.compile_ms", "ms");
    ("pipeline.minor_words", "words");
    ("pipeline.rtl_static_insts", "count");
  ]
  @ List.map (fun p -> (pass_metric p, "ms")) passes
  @ [
      ("tvalid.blocks_checked", "count");
      ("tvalid.blocks_skipped", "count");
      ("tvalid.skip_ratio", "ratio");
      ("tvalid.regions", "count");
      ("tvalid.fallbacks", "count");
      ("coalesce.loops_coalesced", "count");
      ("coalesce.loops_rejected", "count");
      ("coalesce.guards_emitted", "count");
      ("coalesce.guards_elided", "count");
      ("interp.sim_ms", "ms");
      ("interp.decode_ms", "ms");
      ("interp.jit_compile_ms", "ms");
      ("interp.execute_ms", "ms");
      ("interp.minsts_per_s", "Minst/s");
      ("interp.insts", "count");
      ("interp.dcache_miss_rate", "ratio");
      ("workloads.prepare_check_ms", "ms");
      ("protocol.decode_us", "us");
      ("protocol.encode_us", "us");
      ("protocol.reply_bytes", "bytes");
      ("digest_key.resolve_us", "us");
      ("cache.find_hit_us", "us");
      ("cache.find_miss_us", "us");
      ("cache.store_ms", "ms");
      ("cache.entries", "count");
      ("cache.evictions", "count");
      ("service.run_ms", "ms");
      ("service.verdict_hits", "count");
      ("service.minor_words", "words");
      ("server.wait_ms_p50", "ms");
      ("server.wait_ms_p90", "ms");
      ("hit_ms_p50", "ms");
      ("hit_ms_p90", "ms");
      ("miss_ms_p50", "ms");
      ("miss_ms_p90", "ms");
    ]

(* --- census ------------------------------------------------------- *)

let census_id = 1_000_000

let rtl_insts (f : Mac_rtl.Func.t) =
  List.length
    (List.filter
       (fun (i : Mac_rtl.Rtl.inst) ->
         match i.kind with Mac_rtl.Rtl.Label _ -> false | _ -> true)
       f.body)

(* Compile each (source, config) once, in spans, and total the exact
   counts the pipeline returns. *)
let census rec_ compiles =
  let totals = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace totals k
      (v +. Option.value (Hashtbl.find_opt totals k) ~default:0.0)
  in
  List.iteri
    (fun i (src, cfg) ->
      let id = census_id + i in
      ignore (Span.time rec_ ~id "census.minic" (fun () -> Mac_minic.Lower.compile src));
      let c =
        Span.time rec_ ~id "census.pipeline" (fun () ->
            Pipeline.compile_source cfg src)
      in
      let addi k v = add k (float_of_int v) in
      addi "pipeline.rtl_static_insts"
        (List.fold_left (fun acc f -> acc + rtl_insts f) 0 c.Pipeline.funcs);
      List.iter
        (fun (_, (a : Tvalid.agg)) ->
          addi "tvalid.blocks_checked" a.blocks;
          addi "tvalid.blocks_skipped" a.skipped;
          addi "tvalid.regions" a.regions;
          addi "tvalid.fallbacks" a.fallbacks)
        c.tvalid_stats;
      List.iter
        (fun (_, rs) ->
          List.iter
            (fun (r : Coalesce.loop_report) ->
              match r.status with
              | Coalesce.Coalesced -> addi "coalesce.loops_coalesced" 1
              | Coalesce.Rejected _ -> addi "coalesce.loops_rejected" 1
              | Coalesce.Unrolled_only | Coalesce.No_narrow_refs -> ())
            rs)
        c.reports;
      addi "coalesce.guards_emitted" c.guards_emitted;
      addi "coalesce.guards_elided" c.guards_elided)
    compiles;
  let get k = Option.value (Hashtbl.find_opt totals k) ~default:0.0 in
  let checked = get "tvalid.blocks_checked"
  and skipped = get "tvalid.blocks_skipped" in
  ( "tvalid.skip_ratio",
    if checked +. skipped > 0.0 then skipped /. (checked +. skipped) else 0.0 )
  :: Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []

(* --- metrics ------------------------------------------------------ *)

let mean_of f xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)

let dur_s (s : Span.span) = Int64.to_float s.dur_ns *. 1e-9

(* A tail percentile of a layer the workload exercised must have enough
   samples; one it never reached is 0. *)
let tail ~pct xs =
  if xs = [||] then Ok 0.0 else Stats.percentile ~pct xs

let metrics (r : Measure.t) =
  let spans = r.spans in
  let named n = Span.named n spans in
  let mean_ms n = mean_of dur_s (named n) *. 1e3 in
  let mean_us n = mean_of dur_s (named n) *. 1e6 in
  let mean_words n = mean_of (fun (s : Span.span) -> s.words) (named n) in
  (* a layer's total time per op of its parent, so phases that do not
     run in every op still add up to the parent *)
  let per ~parent n =
    match Span.count parent spans with
    | 0 -> 0.0
    | k -> Span.total_seconds n spans /. float_of_int k
  in
  let timed_ms =
    [
      ("minic.compile_ms", mean_ms "census.minic");
      ("minic.minor_words", mean_words "census.minic");
      ("pipeline.compile_ms", mean_ms "pipeline");
      ("pipeline.minor_words", mean_words "census.pipeline");
    ]
    @ List.map
        (fun p -> (pass_metric p, per ~parent:"pipeline" ("pass." ^ p) *. 1e3))
        passes
  in
  let execute_s = Span.total_seconds "interp.execute" spans in
  let insts =
    List.fold_left (fun acc s -> acc +. Span.arg "insts" s) 0.0 (named "interp")
  in
  let interp =
    [
      ("interp.sim_ms", per ~parent:"workloads.run" "interp" *. 1e3);
      ("interp.decode_ms", per ~parent:"workloads.run" "interp.decode" *. 1e3);
      ( "interp.jit_compile_ms",
        per ~parent:"workloads.run" "interp.compile" *. 1e3 );
      ("interp.execute_ms", per ~parent:"workloads.run" "interp.execute" *. 1e3);
      ( "interp.minsts_per_s",
        if execute_s > 0.0 then insts /. execute_s /. 1e6 else 0.0 );
      ( "workloads.prepare_check_ms",
        per ~parent:"workloads.run" "workloads.prepare_check" *. 1e3 );
    ]
  in
  let finds hit =
    List.filter
      (fun s -> Span.arg "hit" s = if hit then 1.0 else 0.0)
      (named "cache.find")
  in
  let replay =
    [
      ("protocol.decode_us", per ~parent:"replay.request" "protocol.decode" *. 1e6);
      ("protocol.encode_us", per ~parent:"replay.request" "protocol.encode" *. 1e6);
      ( "protocol.reply_bytes",
        mean_of (Span.arg "reply_bytes") (named "replay.request") );
      ("digest_key.resolve_us", mean_us "digest_key.resolve");
      ("cache.find_hit_us", mean_of dur_s (finds true) *. 1e6);
      ("cache.find_miss_us", mean_of dur_s (finds false) *. 1e6);
      ("cache.store_ms", mean_ms "cache.store");
      ("service.run_ms", mean_ms "service.run");
      ("service.minor_words", mean_words "service.run");
    ]
  in
  (* client-side latency split of the traced daemon run *)
  let client cached =
    Array.of_list
      (List.filter_map
         (fun s ->
           if Span.arg "cached" s = if cached then 1.0 else 0.0 then
             Some (dur_s s *. 1e3)
           else None)
         (named "client.request"))
  in
  let hits = client true and misses = client false in
  (* the part of a hit's latency the replay does not account for: the
     time it waited in the daemon behind other work *)
  let hit_path_ms =
    let ids = Hashtbl.create 64 in
    List.iter
      (fun (s : Span.span) -> Hashtbl.replace ids s.id ())
      (finds true);
    let on_path (s : Span.span) =
      Hashtbl.mem ids s.id
      && List.mem s.name
           [ "protocol.decode"; "protocol.encode"; "digest_key.resolve";
             "cache.find" ]
    in
    match Hashtbl.length ids with
    | 0 -> 0.0
    | k ->
      List.fold_left
        (fun acc s -> if on_path s then acc +. dur_s s else acc)
        0.0 spans
      /. float_of_int k *. 1e3
  in
  let waits = Array.map (fun ms -> ms -. hit_path_ms) hits in
  let ( let* ) = Result.bind in
  (* p90, not p99: a traced serve-churn run in a slow minute completes
     fewer than 1 000 hits *)
  let* wait50 = tail ~pct:50 waits in
  let* wait90 = tail ~pct:90 waits in
  let* hit50 = tail ~pct:50 hits in
  let* hit90 = tail ~pct:90 hits in
  let* miss50 = tail ~pct:50 misses in
  let* miss90 = tail ~pct:90 misses in
  let values =
    timed_ms @ interp @ replay
    @ [
        ("server.wait_ms_p50", wait50);
        ("server.wait_ms_p90", wait90);
        ("hit_ms_p50", hit50);
        ("hit_ms_p90", hit90);
        ("miss_ms_p50", miss50);
        ("miss_ms_p90", miss90);
      ]
    @ r.counts
  in
  Ok
    (List.map
       (fun (name, unit) ->
         (name, Option.value (List.assoc_opt name values) ~default:0.0, unit))
       names)
