(* compile-grid: the compiler alone, at Vfull (the mccd default), over
   8 programs x 3 machines x {O1, O2, O3, O4, O4-full} in a seeded
   order per round until the time is up. No simulation, so a validator
   or pass change shows here undiluted. *)

module Pipeline = Mac_vpo.Pipeline

let compile (c : Gen.compile) =
  Pipeline.compile_source (Gen.pipeline_config c) c.program.source

let run ~host ~seed ~seconds ~setup_reps ~trace =
  let tally = Check.tally () in
  let digests = Hashtbl.create 128 in
  (* a compile that raises fails like one whose RTL changed *)
  let checked c =
    let name = Gen.compile_name c in
    match compile c with
    | exception e ->
      Check.record tally
        (Error (Printf.sprintf "%s: raised %s" name (Printexc.to_string e)));
      None
    | compiled ->
      let d = Check.rtl_digest compiled in
      (match Hashtbl.find_opt digests name with
      | Some expected -> Check.record tally (Check.same ~name ~what:"RTL" ~expected d)
      | None ->
        Hashtbl.replace digests name d;
        Check.record tally (Ok ()));
      Some compiled
  in
  (* set-up: every compile once, which fixes the RTL later rounds must
     reproduce *)
  let setup () =
    snd
      (Measure.busy host (fun () ->
           Array.iter
             (fun c ->
               Host.tick host;
               ignore (checked c))
             Gen.grid))
  in
  let setup_s = Array.init setup_reps (fun _ -> setup ()) in
  let rec_ = Span.recorder ~on:trace ~tid:0 in
  let latencies = ref [] and rounds = ref 0 in
  let deadline = Measure.deadline seconds in
  let start = Span.now_ns () and spent0 = host.Host.spent_ns in
  (try
     for round = 0 to max_int do
       Array.iter
         (fun c ->
           if not (Measure.before deadline) then raise Exit;
           Host.tick host;
           let w0 = Gc.minor_words () in
           let start_ns = Span.now_ns () in
           let compiled = checked c in
           let dur_ns = Int64.sub (Span.now_ns ()) start_ns in
           latencies := Int64.to_float dur_ns *. 1e-6 :: !latencies;
           match compiled with
           | Some compiled when trace ->
             let id = List.length !latencies in
             Span.record rec_ ~id ~words:(Gc.minor_words () -. w0) "pipeline"
               ~start_ns ~dur_ns;
             Span.derive rec_ ~id ~start_ns
               (List.map
                  (fun (p, s) -> ("pass." ^ p, s, []))
                  compiled.Pipeline.pass_seconds)
           | _ -> ())
         (Gen.grid_order ~seed round);
       rounds := round + 1
     done
   with Exit -> ());
  let elapsed_s = Host.busy_seconds host ~t0:start ~spent0 in
  let peak_rss_mb = Measure.peak_rss_mb None in
  let counts =
    if not trace then []
    else
      Layers.census rec_
        (Array.to_list
           (Array.map
              (fun (c : Gen.compile) -> (c.program.source, Gen.pipeline_config c))
              Gen.grid))
  in
  let latencies_ms = Array.of_list (List.rev !latencies) in
  {
    Measure.setup_s;
    elapsed_s;
    ops = Array.length latencies_ms;
    latencies_ms;
    peak_rss_mb;
    tally;
    notes =
      [
        Printf.sprintf "%d compiles per round, %d complete round(s)"
          (Array.length Gen.grid) !rounds;
      ];
    spans = Span.spans [ rec_ ];
    counts;
  }
