(* Tests of the end-to-end benchmark: the statistics rules, the seeded
   inputs, that every output check can fail, and a short run of each
   workload with all checks on. *)

open E2e
module W = Mac_workloads.Workloads
module Pipeline = Mac_vpo.Pipeline
module Machine = Mac_machine.Machine

let ok_float = Alcotest.(result (float 1e-9) string)
let floats n = Array.init n (fun i -> float_of_int (i + 1))

(* --- Stats -------------------------------------------------------- *)

let test_percentile () =
  Alcotest.check ok_float "p50 of 1..100 is rank 50" (Ok 50.0)
    (Stats.percentile ~pct:50 (floats 100));
  Alcotest.check ok_float "p90 of 1..100 is rank 90" (Ok 90.0)
    (Stats.percentile ~pct:90 (floats 100));
  Alcotest.check ok_float "p99 of 1..1000 has exactly 10 beyond" (Ok 990.0)
    (Stats.percentile ~pct:99 (floats 1000));
  Alcotest.check ok_float "order of the samples does not matter" (Ok 10.0)
    (Stats.percentile ~pct:50
       (Array.of_list (List.rev (Array.to_list (floats 20)))))

let test_percentile_refuses () =
  let refused name r =
    Alcotest.(check bool) name true (Result.is_error r)
  in
  refused "p99 of 100 samples (1 beyond)" (Stats.percentile ~pct:99 (floats 100));
  refused "p99 of 32 samples" (Stats.percentile ~pct:99 (floats 32));
  refused "p99 of 999 samples (9 beyond)" (Stats.percentile ~pct:99 (floats 999));
  refused "p50 of 19 samples (9 beyond)" (Stats.percentile ~pct:50 (floats 19));
  refused "no samples" (Stats.percentile ~pct:50 [||]);
  Alcotest.check ok_float "p50 of 20 samples (10 beyond)" (Ok 10.0)
    (Stats.percentile ~pct:50 (floats 20))

let test_trimmed_mean () =
  Alcotest.check ok_float "10 runs: drop 2 + 2, mean of 6" (Ok 4.5)
    (Stats.trimmed_mean [| 100.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; -50. |]);
  Alcotest.check ok_float "5 runs: drop 1 + 1" (Ok 3.0)
    (Stats.trimmed_mean [| 1.; 2.; 3.; 4.; 1000. |]);
  Alcotest.(check bool) "refuses 4 runs" true
    (Result.is_error (Stats.trimmed_mean [| 1.; 2.; 3.; 4. |]))

let test_geomean () =
  Alcotest.check ok_float "geomean 1, 100" (Ok 10.0) (Stats.geomean [| 1.; 100. |]);
  Alcotest.(check bool) "refuses a zero" true
    (Result.is_error (Stats.geomean [| 1.; 0. |]));
  Alcotest.(check (float 1e-9)) "median of an even count" 2.5
    (Stats.median [| 4.; 1.; 3.; 2. |])

(* --- Gen ---------------------------------------------------------- *)

let test_seeds () =
  List.iter
    (fun (name, w) ->
      let digest seed = Gen.digest (Gen.dump ~seed w) in
      Alcotest.(check string) (name ^ ": same seed, same inputs") (digest 1)
        (digest 1);
      Alcotest.(check bool) (name ^ ": seed 1 differs from seed 2") false
        (digest 1 = digest 2))
    Gen.workloads;
  Alcotest.(check int) "84 sweep cells" 84 (Array.length Gen.sweep_cells);
  Alcotest.(check int) "119 grid compiles" 119 (Array.length Gen.grid);
  Alcotest.(check int) "96 hot keys" 96 (Array.length Gen.hot)

(* --- Check: each check must be able to fail ------------------------ *)

let image_add = Option.get (W.find "image_add")

let test_checks_fail () =
  let tally = Check.tally () in
  (* a cell whose output differs from the reference *)
  let wrong =
    { image_add with source = W.image_binop_src image_add.entry "-" }
  in
  let run b = W.run ~size:16 ~machine:Machine.alpha ~level:Pipeline.O4 b in
  let good = run image_add in
  Alcotest.(check bool) "the real cell passes" true
    (Result.is_ok (Check.cell ~name:"good" ~cycles:None good));
  Alcotest.(check bool) "other cycles than the first run fail" true
    (Result.is_error
       (Check.cell ~name:"good" ~cycles:(Some (good.metrics.cycles + 1)) good));
  Check.record tally (Check.cell ~name:"wrong" ~cycles:None (run wrong));
  (* a compile whose RTL differs from the first *)
  let digest level =
    Check.rtl_digest
      (Pipeline.compile_source
         (Pipeline.config ~level ~verify:Pipeline.Vfull Machine.alpha)
         W.dotproduct.source)
  in
  let first = digest Pipeline.O4 in
  Alcotest.(check bool) "the same compile passes" true
    (Result.is_ok
       (Check.same ~name:"O4" ~what:"RTL" ~expected:first (digest Pipeline.O4)));
  Check.record tally
    (Check.same ~name:"O1" ~what:"RTL" ~expected:first (digest Pipeline.O1));
  (* a hit whose body is not the compiled body *)
  let ok, body = Mac_serve.Service.run Gen.hot.(0) in
  Alcotest.(check bool) "the compile succeeds" true ok;
  let tampered = Bytes.of_string body in
  Bytes.set tampered (Bytes.length tampered / 2) '#';
  let expected = [ Digest.string body ] in
  Alcotest.(check bool) "the compiled body passes" true
    (Result.is_ok (Check.hit ~name:"hit" ~expected (Digest.string body)));
  Check.record tally
    (Check.hit ~name:"tampered" ~expected
       (Digest.string (Bytes.to_string tampered)));
  Alcotest.(check int) "three failed ops" 3 tally.failed;
  Alcotest.(check int) "three attempted ops" 3 tally.attempted;
  Alcotest.(check int) "the command exits non-zero" 1 (Check.exit_code tally)

let test_content_digest () =
  let ok, body = Mac_serve.Service.run Gen.hot.(5) in
  let ok', body' = Mac_serve.Service.run Gen.hot.(5) in
  Alcotest.(check bool) "both compile" true (ok && ok');
  Alcotest.(check bool) "timings differ between compiles" false
    (String.equal body body');
  Alcotest.(check bool) "contents agree" true
    (Digest.equal (Check.content_digest body) (Check.content_digest body'));
  let _, other = Mac_serve.Service.run Gen.hot.(6) in
  Alcotest.(check bool) "another compile's content differs" false
    (Digest.equal (Check.content_digest body) (Check.content_digest other))

(* --- Host ----------------------------------------------------------- *)

let test_host () =
  let h = Host.start ~exe:"./bench.exe" in
  Host.sample h 3;
  Host.sample h 2;
  Host.stop h;
  Alcotest.(check int) "one time per kernel run" 5 (List.length h.kernel_ms);
  Alcotest.(check bool) "every time is positive" true
    (List.for_all (fun x -> x > 0.0) h.kernel_ms);
  let f = 2.0 in
  Alcotest.(check (list (triple string (float 1e-9) string)))
    "times are multiplied, rates divided, counts kept"
    [ ("t", 6.0, "ms"); ("r", 1.5, "1/s"); ("c", 3.0, "count") ]
    (List.map (Host.scale f) [ ("t", 3.0, "ms"); ("r", 3.0, "1/s"); ("c", 3.0, "count") ])

(* --- smoke: every workload, briefly, all checks on ------------------ *)

let smoke ?(trace = false) w () =
  let seconds = 0.5 and setup_reps = 1 and seed = 1 in
  let exe = "./bench.exe" in
  let host = Host.start ~exe in
  let r =
    Fun.protect
      ~finally:(fun () -> Host.stop host)
      (fun () ->
        match w with
        | Gen.Paper_sweep -> Sweep.run ~host ~seed ~seconds ~setup_reps ~trace
        | Gen.Compile_grid -> Grid.run ~host ~seed ~seconds ~setup_reps ~trace
        | Gen.Serve_mixed | Gen.Serve_churn ->
          Serve.run ~host ~exe ~dir:"_run" ~seed ~seconds ~setup_reps ~trace w)
  in
  Alcotest.(check (list string)) "no failures" [] r.tally.first_failures;
  Alcotest.(check int) "no failed ops" 0 r.tally.failed;
  Alcotest.(check bool) "ops were measured" true
    (Array.length r.latencies_ms > 0);
  Alcotest.(check bool) "the host kernel was sampled" true
    (host.kernel_ms <> []);
  if w = Gen.Paper_sweep then begin
    let g = Sweep.o4_cycles_geomean r.tally in
    Alcotest.(check bool) "the O4 cycles geomean" true
      (match g with Ok g -> g > 0.0 | Error _ -> false);
    Alcotest.(check int) "its cells pass" 0 r.tally.failed
  end;
  if trace then begin
    Alcotest.(check bool) "the trace parses" true
      (Result.is_ok (Mac_workloads.Jsonio.parse (Span.chrome_trace r.spans)));
    if w = Gen.Serve_churn then
      Alcotest.(check (option (float 0.0))) "the replay cache holds its cap"
        (Some 32.0) (List.assoc_opt "cache.entries" r.counts);
    match Layers.metrics r with
    | Ok m ->
      Alcotest.(check (list string)) "every per-layer metric"
        (List.map fst Layers.names)
        (List.map (fun (n, _, _) -> n) m)
    | Error e when w = Gen.Serve_churn ->
      (* half a second may give fewer than the 100 hits a p90 needs *)
      Alcotest.(check bool) ("a thin tail is refused: " ^ e) true
        (String.ends_with ~suffix:"need 10" e)
    | Error e -> Alcotest.fail e
  end

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "refuses thin tails" `Quick test_percentile_refuses;
          Alcotest.test_case "trimmed mean" `Quick test_trimmed_mean;
          Alcotest.test_case "geomean and median" `Quick test_geomean;
        ] );
      ("gen", [ Alcotest.test_case "seeded inputs" `Quick test_seeds ]);
      ("host", [ Alcotest.test_case "kernel in a child process" `Quick test_host ]);
      ( "check",
        [
          Alcotest.test_case "each check can fail" `Quick test_checks_fail;
          Alcotest.test_case "content digest" `Quick test_content_digest;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "paper-sweep" `Quick (smoke Gen.Paper_sweep);
          Alcotest.test_case "compile-grid, traced" `Quick
            (smoke ~trace:true Gen.Compile_grid);
          Alcotest.test_case "serve-mixed" `Quick (smoke Gen.Serve_mixed);
          Alcotest.test_case "serve-churn, traced" `Quick
            (smoke ~trace:true Gen.Serve_churn);
        ] );
    ]
