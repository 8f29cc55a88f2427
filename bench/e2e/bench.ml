(* The end-to-end benchmark.

     dune exec bench/e2e/bench.exe -- --workload W --seed N --seconds S \
       [--trace 0|1]
     dune exec bench/e2e/bench.exe -- --workload W --seed N --dump-workload

   Runs from the root of the repository. Prints every metric by name
   with its unit and sample count, then, as its last line, one JSON
   object with the keys correct, attempted, failed and metrics. The
   untraced run reports the end-to-end metrics; [--trace 1] runs the
   workload with spans, reports the per-layer metrics and writes a
   Chrome trace under bench/e2e/_run/. [--seconds] has no default: the
   window is BENCHMARK.json's run_seconds, which its command is given.
   Exits 1 when any op fails its check. See bench/e2e/README.md. *)

module J = Mac_workloads.Jsonio
open E2e

let run_dir = "bench/e2e/_run"

let usage =
  "bench.exe --workload (paper-sweep|compile-grid|serve-mixed|serve-churn) \
   --seed N (--seconds S [--trace 0|1] | --dump-workload)"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench: " ^ s);
      exit 2)
    fmt

(* The scaled value, then the raw one when scaling changed it. *)
let print_metric factor (name, value, unit) note =
  let _, scaled, _ = Host.scale factor (name, value, unit) in
  Printf.printf "%-32s %16.6f %-8s %s\n" name scaled unit
    (if scaled = value then note else Printf.sprintf "raw %.6f; %s" value note)

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 in
  let trace = ref 0 and dump = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  the workload to run");
      ("--seed", Arg.Set_int seed, "N  input seed (1 is the baseline)");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1  report per-layer metrics");
      ("--dump-workload", Arg.Set dump, " print the inputs and their digest");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Gen.workload_of_string !workload with
    | Some w -> w
    | None -> fail "unknown workload %S\n%s" !workload usage
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !dump then begin
    let lines = Gen.dump ~seed:!seed w in
    List.iter print_endline lines;
    Printf.printf "digest %s\n" (Gen.digest lines);
    exit 0
  end;
  if not (!seconds > 0.0) then fail "--seconds S is required\n%s" usage;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let exe = Sys.executable_name and setup_reps = Measure.setup_reps in
  (* The in-process workloads compile on this domain alone, so they
     measure the program and not the scheduler; the serve workloads'
     daemon inherits the environment and keeps its default pool. *)
  if w = Gen.Paper_sweep || w = Gen.Compile_grid then Unix.putenv "MAC_JOBS" "1";
  let host = Host.start ~exe in
  let r =
    Fun.protect
      ~finally:(fun () -> Host.stop host)
      (fun () ->
        match w with
        | Gen.Paper_sweep -> Sweep.run ~host ~seed ~seconds ~setup_reps ~trace
        | Gen.Compile_grid -> Grid.run ~host ~seed ~seconds ~setup_reps ~trace
        | Gen.Serve_mixed | Gen.Serve_churn ->
          Serve.run ~host ~exe ~dir:run_dir ~seed ~seconds ~setup_reps ~trace w)
  in
  let factor = Host.factor host in
  let o4_cycles =
    match Sweep.o4_cycles_geomean r.tally with Ok g -> g | Error e -> fail "%s" e
  in
  Printf.printf "workload %s, seed %d, %g s measured, %s\n" !workload seed
    seconds
    (if trace then "traced" else "untraced");
  let e2e =
    match Measure.end_to_end r ~o4_cycles with Ok m -> m | Error e -> fail "%s" e
  in
  Printf.printf
    "host kernel: mean %.4f ms of %d samples; times scaled by %.4f to the \
     %.1f ms reference, rates by its inverse\n"
    (Host.reference_ms /. factor)
    (List.length host.kernel_ms) factor Host.reference_ms;
  List.iter
    (fun (name, value, unit, note) ->
      let note =
        if name = "setup_s" then
          Printf.sprintf "%s %s" note
            (String.concat " "
               (Array.to_list (Array.map (Printf.sprintf "%.4f") r.setup_s)))
        else note
      in
      print_metric factor (name, value, unit) note)
    e2e;
  List.iter print_endline r.notes;
  List.iter
    (fun m -> print_endline ("FAILED " ^ m))
    (List.rev r.tally.first_failures);
  let metrics =
    if not trace then List.map (fun (n, v, u, _) -> (n, v, u)) e2e
    else begin
      let layers =
        match Layers.metrics r with Ok m -> m | Error e -> fail "%s" e
      in
      print_endline "per-layer:";
      List.iter (fun m -> print_metric factor m "") layers;
      Measure.mkdir_p run_dir;
      let path =
        Printf.sprintf "%s/%s-seed%d.trace.json" run_dir !workload seed
      in
      let oc = open_out_bin path in
      output_string oc (Span.chrome_trace r.spans);
      close_out oc;
      Printf.printf "trace: %s (%d spans)\n" path (List.length r.spans);
      layers
    end
  in
  print_endline
    (J.render
       (J.Obj
          [
            ("correct", J.Bool (r.tally.failed = 0));
            ("attempted", J.Num (float_of_int r.tally.attempted));
            ("failed", J.Num (float_of_int r.tally.failed));
            ( "metrics",
              J.Obj
                (List.map
                   (fun m ->
                     let n, v, u = Host.scale factor m in
                     (n, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ]))
                   metrics) );
          ]));
  exit (Check.exit_code r.tally)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--host-kernel" ] -> Host.child_main ()
  | _ :: "--serve-daemon" :: socket :: cache_dir :: rest ->
    Serve.daemon_main ~socket ~cache_dir
      ~max_entries:(Option.map int_of_string (List.nth_opt rest 0))
  | _ -> main ()
