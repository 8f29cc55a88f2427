(* paper-sweep: the paper's evaluation (TAB2 + TAB3 + TAB4), 84
   compile+simulate cells, repeated in a seeded order until the time is
   up. Forced coalescing and the default engine, as in [Tables.table],
   one cell at a time. The simulator does nearly all of the work, so an
   engine change shows here and nowhere else. *)

module W = Mac_workloads.Workloads
module Tables = Mac_workloads.Tables
module Pipeline = Mac_vpo.Pipeline

let run_cell (c : Gen.cell) =
  Tables.cell ~size:Gen.sweep_size ~respect_profitability:false
    ~machine:c.machine c.bench c.level

(* One cell as a span, with its compile, simulation and
   prepare-and-check parts read off the outcome's own timings. *)
let trace_cell rec_ ~id ~start_ns ~dur_ns ~words (o : W.outcome) =
  Span.record rec_ ~id ~words "workloads.run" ~start_ns ~dur_ns;
  let total = Int64.to_float dur_ns *. 1e-9 in
  let rest = Float.max 0.0 (total -. o.compile_seconds -. o.sim_seconds) in
  Span.derive rec_ ~id ~start_ns
    [
      ("pipeline", o.compile_seconds, []);
      ("interp", o.sim_seconds, [ ("insts", float_of_int o.metrics.insts) ]);
      ("workloads.prepare_check", rest, []);
    ];
  Span.derive rec_ ~id ~start_ns
    (List.map (fun (p, s) -> ("pass." ^ p, s, [])) o.pass_seconds);
  Span.derive rec_ ~id
    ~start_ns:(Int64.add start_ns (Span.ns_of_seconds o.compile_seconds))
    (List.map (fun (ph, s) -> ("interp." ^ ph, s, [])) o.sim_phases)

(* Exact counts over one pass of the 84 cells. *)
let cell_counts outcomes =
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 outcomes in
  let insts = sum (fun (o : W.outcome) -> o.metrics.insts) in
  let hits = sum (fun o -> o.metrics.dcache_hits)
  and misses = sum (fun o -> o.metrics.dcache_misses) in
  [
    ("interp.insts", float_of_int insts);
    ( "interp.dcache_miss_rate",
      float_of_int misses /. float_of_int (Stdlib.max 1 (hits + misses)) );
  ]

(* The geomean of the simulated cycles of the sweep's 21 O4 cells,
   each checked against its reference output. It is exact, and a
   property of the commit rather than of a workload, so every workload
   runs these cells once after its window and reports it: the one
   end-to-end metric that moves when the compiled code gets slower. *)
let o4_cycles_geomean tally =
  let cycles =
    List.filter_map
      (fun (c : Gen.cell) ->
        if c.level <> Pipeline.O4 then None
        else begin
          let o = run_cell c in
          Check.record tally (Check.cell ~name:(Gen.cell_name c) ~cycles:None o);
          Some (float_of_int o.W.metrics.cycles)
        end)
      (Array.to_list Gen.sweep_cells)
  in
  Stats.geomean (Array.of_list cycles)

let run ~host ~seed ~seconds ~setup_reps ~trace =
  let tally = Check.tally () in
  let cycles = Hashtbl.create 128 in
  let check (c : Gen.cell) o =
    let name = Gen.cell_name c in
    Check.record tally (Check.cell ~name ~cycles:(Hashtbl.find_opt cycles name) o);
    if not (Hashtbl.mem cycles name) then
      Hashtbl.replace cycles name o.W.metrics.cycles
  in
  (* set-up: the cells once in table order, which also fixes the cycle
     count every later run of a cell must reproduce *)
  let setup () =
    Measure.busy host (fun () ->
        Array.to_list
          (Array.map
             (fun c ->
               Host.tick host;
               let o = run_cell c in
               check c o;
               (c, o))
             Gen.sweep_cells))
  in
  let setups = List.init setup_reps (fun _ -> setup ()) in
  let outcomes = fst (List.nth setups (setup_reps - 1)) in
  let rec_ = Span.recorder ~on:trace ~tid:0 in
  let latencies = ref [] and sweeps = ref [] in
  let deadline = Measure.deadline seconds in
  let start = Span.now_ns () and spent0 = host.Host.spent_ns in
  (try
     for rep = 0 to max_int do
       let t_rep = Span.now_ns () and spent_rep = host.spent_ns in
       Array.iter
         (fun c ->
           if not (Measure.before deadline) then raise Exit;
           Host.tick host;
           let w0 = Gc.minor_words () in
           let start_ns = Span.now_ns () in
           let o = run_cell c in
           let dur_ns = Int64.sub (Span.now_ns ()) start_ns in
           latencies := Int64.to_float dur_ns *. 1e-6 :: !latencies;
           check c o;
           if trace then
             trace_cell rec_ ~id:(List.length !latencies) ~start_ns ~dur_ns
               ~words:(Gc.minor_words () -. w0) o)
         (Gen.sweep_order ~seed rep);
       sweeps :=
         Host.busy_seconds host ~t0:t_rep ~spent0:spent_rep :: !sweeps
     done
   with Exit -> ());
  let elapsed_s = Host.busy_seconds host ~t0:start ~spent0 in
  let peak_rss_mb = Measure.peak_rss_mb None in
  let counts = cell_counts outcomes in
  let census =
    if not trace then []
    else
      Layers.census rec_
        (Array.to_list
           (Array.map
              (fun (c : Gen.cell) ->
                ( c.bench.source,
                  Pipeline.config ~level:c.level
                    ~coalesce:
                      (Tables.coalesce_options ~respect_profitability:false)
                    c.machine ))
              Gen.sweep_cells))
  in
  let sweep_s =
    match Stats.trimmed_mean (Array.of_list !sweeps) with
    | Ok s -> Printf.sprintf "%.4f s, trimmed mean of %d" s (List.length !sweeps)
    | Error e -> e
  in
  let latencies_ms = Array.of_list (List.rev !latencies) in
  {
    Measure.setup_s = Array.of_list (List.map snd setups);
    elapsed_s;
    ops = Array.length latencies_ms;
    latencies_ms;
    peak_rss_mb;
    tally;
    notes =
      ("sweep_s (84 cells): " ^ sweep_s)
      :: List.map (fun (k, v) -> Printf.sprintf "%s: %.17g" k v) counts;
    spans = Span.spans [ rec_ ];
    counts = (if trace then counts @ census else []);
  }
