(* Tests for the benchmark workloads: determinism, reference
   implementations, layout machinery, and the table harness. *)

module W = Mac_workloads.Workloads
module Tables = Mac_workloads.Tables
module Machine = Mac_machine.Machine
module Pipeline = Mac_vpo.Pipeline
module Memory = Mac_sim.Memory
module Pool = Mac_parallel.Pool
module Interp = Mac_sim.Interp
module Reuse = Mac_dataflow.Reuse

(* --- Pool failure paths (documented in pool.mli, previously untested):
   a worker raising mid-batch must re-raise the lowest-indexed failure,
   and only after every worker joined — every item is still attempted
   exactly once. *)

exception Boom of int

let test_pool_failure_lowest_index () =
  let attempted = Atomic.make 0 in
  let f i =
    Atomic.incr attempted;
    if i = 2 || i = 4 then raise (Boom i) else i
  in
  (match Pool.map ~jobs:3 f [ 0; 1; 2; 3; 4; 5 ] with
  | _ -> Alcotest.fail "expected Pool.map to re-raise"
  | exception Boom i ->
    Alcotest.(check int) "lowest-indexed failure wins" 2 i);
  Alcotest.(check int)
    "every item still attempted after a failure" 6 (Atomic.get attempted)

let test_pool_failure_preserves_exception () =
  (* the original exception value crosses the domain join intact *)
  match Pool.map ~jobs:2 (fun () -> failwith "poisoned cell") [ (); () ] with
  | _ -> Alcotest.fail "expected Pool.map to re-raise"
  | exception Failure msg ->
    Alcotest.(check string) "exception payload" "poisoned cell" msg

let test_pool_failure_returns_rest () =
  (* a failure among many: successful items before and after the raise
     are computed (the pool drains the queue before re-raising) *)
  let done_items = Atomic.make 0 in
  let f i =
    if i = 0 then failwith "first"
    else begin
      Atomic.incr done_items;
      i
    end
  in
  (match Pool.map ~jobs:4 f [ 0; 1; 2; 3; 4; 5; 6; 7 ] with
  | _ -> Alcotest.fail "expected Pool.map to re-raise"
  | exception Failure msg -> Alcotest.(check string) "message" "first" msg);
  Alcotest.(check int) "other items completed" 7 (Atomic.get done_items)

(* A pool-owned domain never spawns: a nested map runs serially on the
   domain that calls it, still in input order and still re-raising the
   lowest-indexed failure, while a top-level map keeps its domains. *)
let test_pool_nested_stays_on_caller () =
  let outer =
    Pool.map ~jobs:2
      (fun i ->
        let self = Domain.self () in
        let inner =
          Pool.map ~jobs:4
            (fun j -> (Domain.self (), (10 * i) + j))
            [ 0; 1; 2; 3 ]
        in
        let failed =
          match
            Pool.map ~jobs:4
              (fun j -> if j = 1 || j = 3 then raise (Boom j) else j)
              [ 0; 1; 2; 3 ]
          with
          | _ -> None
          | exception Boom j -> Some j
        in
        (self, inner, failed))
      [ 0; 1 ]
  in
  let main = Domain.self () in
  List.iteri
    (fun i (self, inner, failed) ->
      Alcotest.(check bool) "top-level map spawned a domain" true
        (self <> main);
      Alcotest.(check bool) "nested map ran on the caller's domain" true
        (List.for_all (fun (d, _) -> d = self) inner);
      Alcotest.(check (list int)) "nested results in input order"
        (List.init 4 (fun j -> (10 * i) + j))
        (List.map snd inner);
      Alcotest.(check (option int)) "nested lowest-indexed failure" (Some 1)
        failed)
    outer;
  Alcotest.(check int) "nested effective jobs" 1
    (Domain.join (Pool.spawn (fun () -> Pool.effective_jobs ~jobs:4 8)))

let test_find () =
  List.iter
    (fun name ->
      match W.find name with
      | Some b -> Alcotest.(check string) "name" name b.W.name
      | None -> Alcotest.failf "benchmark %s not found" name)
    [ "dotproduct"; "convolution"; "image_add"; "image_add16"; "image_xor";
      "translate"; "eqntott"; "mirror" ];
  Alcotest.(check bool) "unknown" true (W.find "fibonacci" = None)

let test_suite_composition () =
  (* Table I has six programs; image_add16 is the seventh row of Table II *)
  Alcotest.(check int) "seven benchmarks" 7 (List.length W.all);
  List.iter
    (fun (b : W.t) ->
      Alcotest.(check bool)
        (b.name ^ " has a description")
        true
        (String.length b.description > 0);
      Alcotest.(check bool) (b.name ^ " paper loc") true (b.paper_loc > 0))
    W.all

(* The inputs every benchmark prepares at size 24 under the default
   layout, pinned by MD5: the memory image, the expected output regions
   (name and bytes) and the expected return value. Input generation
   and the reference implementations may get faster; these bytes may
   not change. *)
let prepared_digests =
  [
    ( "dotproduct", "5578b257ec13bebc6b18420450dbcb1d",
      "d41d8cd98f00b204e9800998ecf8427e", Some 7971664146L );
    ( "convolution", "c8434c294a67fad64d615590b988b496",
      "7cd2feacfb18f6506b3f9405a5d1a05b", None );
    ( "image_add", "52f7b4dcf1e921d6d29f9cd16564d378",
      "1a4e9cddc35daaa2cd2529446116ea28", None );
    ( "image_add16", "0d2d9fe9d4f739c391caa05dd753e31e",
      "298deead692b5cb6e364c09afe01f01d", None );
    ( "image_xor", "d6db8a5442d3a67fe1962e3f93b76e62",
      "c11fddb409d6a8e4c11d8e39d6abff9b", None );
    ( "translate", "d51aad7e4bc42b443e523839645b1395",
      "52ebf5b8f49d840ddc4e801a0285e93a", None );
    ( "eqntott", "9a84911d235d4bc33de8c65bf9016afc",
      "590463d9fa69e1434571540f80533349", Some 24L );
    ( "mirror", "7f4a9d45599a2a31e18192ce78e1836a",
      "6ffe506ff28bb31312a8af76e73ae055", None );
  ]

let test_prepared_digests () =
  List.iter
    (fun (name, image_md5, outputs_md5, value) ->
      let b = Option.get (W.find name) in
      let size = 1 lsl 16 in
      let mem = Memory.create ~size in
      let inst = b.W.prepare W.default_layout ~size:24 mem in
      let image = Memory.load_bytes mem ~addr:8L ~len:(size - 8) in
      let outputs =
        String.concat ""
          (List.map
             (fun (n, bytes) -> n ^ ":" ^ Bytes.to_string bytes)
             inst.W.expected)
      in
      let hex s = Digest.to_hex (Digest.string s) in
      Alcotest.(check string) (name ^ ": memory image") image_md5
        (hex (Bytes.to_string image));
      Alcotest.(check string) (name ^ ": expected outputs") outputs_md5
        (hex outputs);
      Alcotest.(check (option int64)) (name ^ ": expected value") value
        inst.W.expected_value)
    prepared_digests

let test_determinism () =
  (* two runs of the same configuration must agree exactly *)
  List.iter
    (fun (b : W.t) ->
      let run () =
        let o =
          W.run ~size:16 ~machine:Machine.alpha ~level:Pipeline.O4 b
        in
        (o.value, o.metrics.cycles, o.metrics.insts)
      in
      let a = run () and b' = run () in
      Alcotest.(check bool) (b.name ^ " deterministic") true (a = b'))
    (W.dotproduct :: W.all)

let test_outputs_verified () =
  (* every benchmark declares a reference for the default layout *)
  List.iter
    (fun (b : W.t) ->
      let mem = Memory.create ~size:(1 lsl 18) in
      let inst = b.prepare W.default_layout ~size:16 mem in
      Alcotest.(check bool)
        (b.name ^ " has expectations")
        true
        (inst.expected <> [] || inst.expected_value <> None))
    (W.dotproduct :: W.all)

let test_layout_skew () =
  let mem = Memory.create ~size:(1 lsl 18) in
  let layout = { W.default_layout with skew = 2 } in
  let inst =
    (Option.get (W.find "image_add")).prepare layout ~size:16 mem
  in
  List.iter
    (fun arg ->
      (* the three buffer addresses are skewed off 8-byte alignment *)
      if Int64.compare arg 4096L < 0 && Int64.compare arg 8L > 0 then
        Alcotest.(check int64) "skewed" 2L (Int64.rem arg 8L))
    (List.filteri (fun i _ -> i < 3) inst.args)

let test_layout_overlap () =
  let mem = Memory.create ~size:(1 lsl 18) in
  let layout = { W.default_layout with overlap = true } in
  let inst = (Option.get (W.find "mirror")).prepare layout ~size:16 mem in
  match inst.args with
  | src :: dst :: _ ->
    let n = 16 * 16 in
    Alcotest.(check bool) "dst inside src extent" true
      (Int64.compare dst src > 0
      && Int64.compare dst (Int64.add src (Int64.of_int n)) < 0)
  | _ -> Alcotest.fail "args"

let test_failure_reported () =
  (* corrupting the program must surface as an output mismatch, proving
     the verification actually bites *)
  let bench = Option.get (W.find "image_add") in
  let broken =
    { bench with
      W.source =
        Mac_workloads.Workloads.image_binop_src "image_add" "-"
        (* wrong operator *) }
  in
  let o = W.run ~size:16 ~machine:Test32.machine ~level:Pipeline.O1 broken in
  Alcotest.(check bool) "mismatch detected" true (o.error <> None)

let test_eqntott_reference_value () =
  (* the kernel's return value equals the reference inversion count *)
  let o =
    W.run ~size:16 ~machine:Test32.machine ~level:Pipeline.O0
      (Option.get (W.find "eqntott"))
  in
  Alcotest.(check bool) "verified" true o.correct

let test_tables_row () =
  let r =
    Table_row.row ~size:24 ~machine:Machine.alpha
      (Option.get (W.find "mirror"))
  in
  Alcotest.(check bool) "verified" true r.verified;
  (* the printed table's last column is the load+store savings *)
  let printed =
    Fmt.str "%a" (fun ppf -> Tables.pp_table ppf Machine.alpha) [ r ]
  in
  let want = Printf.sprintf "| %6.2f | ok" (Table_row.savings_all r) in
  Alcotest.(check bool) "savings formula" true
    (List.exists
       (fun line ->
         let n = String.length line and k = String.length want in
         n >= k && String.sub line (n - k) k = want)
       (String.split_on_char '\n' printed))

let test_tables_gated_vs_forced () =
  (* forced coalescing on the 68030 must lose; the gated row must not *)
  let bench = Option.get (W.find "image_add") in
  let forced =
    Table_row.row ~size:24 ~respect_profitability:false
      ~machine:Machine.mc68030 bench
  in
  let gated =
    Table_row.row ~size:24 ~respect_profitability:true
      ~machine:Machine.mc68030 bench
  in
  Alcotest.(check bool) "forced loses" true
    (Table_row.savings_all forced < 0.0);
  Alcotest.(check bool) "gated at least breaks even" true
    (Table_row.savings_all gated >= 0.0)

(* The SCHED headline cell: forced coalescing of image_add16 at O4 on
   the 88100 at size 64 takes 94231 cycles, and the -Osched software
   pipeliner with the Pipelined profitability oracle brings it to 79895.
   Simulated cycles are deterministic, so both are pinned exactly. *)
let test_tables_sched_cell () =
  let bench = Option.get (W.find "image_add16") in
  let plain = Table_row.row ~size:64 ~machine:Machine.mc88100 bench in
  let sched =
    Table_row.row ~size:64 ~pipeline_sched:true
      ~profit_mode:Mac_core.Profitability.Pipelined ~machine:Machine.mc88100
      bench
  in
  Alcotest.(check int) "unscheduled O4 cycles" 94231 plain.loads_stores;
  Alcotest.(check int) "-Osched O4 cycles" 79895 sched.loads_stores;
  Alcotest.(check bool) "verified" true (plain.verified && sched.verified)

(* --- static disambiguation ------------------------------------------- *)

let forced_coalesce =
  { Mac_core.Coalesce.default with
    respect_profitability = false;
    icache_guard = false }

let guarded_coalesce =
  { forced_coalesce with Mac_core.Coalesce.force_guards = true }

let guard_counts (o : W.outcome) =
  List.fold_left
    (fun acc (_, rs) ->
      List.fold_left
        (fun (em, el) (r : Mac_core.Coalesce.loop_report) ->
          (em + r.guards_emitted, el + r.guards_elided))
        acc rs)
    (0, 0) o.reports

(* The acceptance bar: on the Table II configuration at O4 with the
   layout facts asserted, at least one guard is statically discharged,
   the audit certifies every elision (verify:Vfull would raise
   otherwise), and the output still verifies. *)
let test_elision_on_table2 () =
  let o =
    W.run ~size:24 ~coalesce:forced_coalesce ~assume_layout:true
      ~verify:Pipeline.Vfull ~machine:Machine.alpha ~level:Pipeline.O4
      (Option.get (W.find "image_add"))
  in
  let emitted, elided = guard_counts o in
  Alcotest.(check bool) "correct" true o.correct;
  Alcotest.(check bool) "at least one guard discharged" true (elided > 0);
  Alcotest.(check int) "image_add discharges every guard" 0 emitted

let test_force_guards_overrides () =
  let o =
    W.run ~size:24 ~coalesce:guarded_coalesce ~assume_layout:true
      ~verify:Pipeline.Vfull ~machine:Machine.alpha ~level:Pipeline.O4
      (Option.get (W.find "image_add"))
  in
  let emitted, elided = guard_counts o in
  Alcotest.(check bool) "correct" true o.correct;
  Alcotest.(check int) "nothing elided" 0 elided;
  Alcotest.(check bool) "guards back" true (emitted > 0)

(* Elision must not change observable behaviour: same return value and
   verified output as the fully guarded build, and strictly no more
   dynamic work in the dispatch. *)
let test_elided_matches_forced () =
  List.iter
    (fun machine ->
      List.iter
        (fun (b : W.t) ->
          let run coalesce =
            W.run ~size:24 ~coalesce ~assume_layout:true ~machine
              ~level:Pipeline.O4 b
          in
          let elided = run forced_coalesce
          and guarded = run guarded_coalesce in
          Alcotest.(check bool) (b.name ^ " elided correct") true
            elided.correct;
          Alcotest.(check bool) (b.name ^ " guarded correct") true
            guarded.correct;
          Alcotest.(check int64) (b.name ^ " same value") guarded.value
            elided.value;
          Alcotest.(check bool)
            (b.name ^ " elision never adds instructions")
            true
            (elided.metrics.insts <= guarded.metrics.insts))
        W.all)
    Machine.all

(* The differential check runs the build that was asked for: with the
   layout facts asserted, its optimized side is the elided build. *)
let test_differential_assume_layout () =
  let d =
    W.differential ~size:24 ~coalesce:forced_coalesce ~assume_layout:true
      ~machine:Machine.alpha ~level:Pipeline.O4
      (Option.get (W.find "image_add"))
  in
  Alcotest.(check (option string)) "O0 and O4 agree" None d.detail;
  let emitted, elided = guard_counts d.opt in
  Alcotest.(check bool) "optimized side elides guards" true (elided > 0);
  Alcotest.(check int) "no guard emitted" 0 emitted

(* The estimator and the simulator see one build: [estimate] compiles
   and prepares memory through the same step as [run], so a pass option
   reaches both. On mc88100 image_add each prediction counts the
   instructions, loads, stores and d-cache misses of the build it was
   asked for, the unscheduled one to the cycle, and [~schedule] lowers
   the prediction as it lowers the simulation. *)
let test_estimate_follows_run () =
  let b = Option.get (W.find "image_add") in
  let both schedule =
    let p =
      W.estimate ~size:16 ~schedule ~machine:Machine.mc88100
        ~level:Pipeline.O4 b
    in
    let o =
      W.run ~size:16 ~schedule ~machine:Machine.mc88100 ~level:Pipeline.O4 b
    in
    let s = p.W.summary and m = o.W.metrics in
    let what = if schedule then "scheduled" else "unscheduled" in
    Alcotest.(check int) (what ^ ": instructions") m.Interp.insts
      s.Reuse.s_insts;
    Alcotest.(check int) (what ^ ": loads") m.Interp.loads s.Reuse.s_loads;
    Alcotest.(check int) (what ^ ": stores") m.Interp.stores s.Reuse.s_stores;
    Alcotest.(check int) (what ^ ": d-cache misses") m.Interp.dcache_misses
      s.Reuse.s_misses;
    (s.Reuse.s_cycles, m.Interp.cycles)
  in
  let plain_pred, plain_sim = both false in
  let sched_pred, sched_sim = both true in
  Alcotest.(check int) "unscheduled: predicted = simulated cycles" plain_sim
    plain_pred;
  Alcotest.(check bool) "scheduling lowers the simulated cycles" true
    (sched_sim < plain_sim);
  Alcotest.(check bool) "scheduling lowers the predicted cycles" true
    (sched_pred < plain_pred)

let () =
  Alcotest.run "workloads"
    [
      ( "catalogue",
        [
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "composition" `Quick test_suite_composition;
        ] );
      ( "pool",
        [
          Alcotest.test_case "lowest-indexed failure re-raised" `Quick
            test_pool_failure_lowest_index;
          Alcotest.test_case "exception payload preserved" `Quick
            test_pool_failure_preserves_exception;
          Alcotest.test_case "failure drains the batch" `Quick
            test_pool_failure_returns_rest;
          Alcotest.test_case "nested map stays on the caller" `Quick
            test_pool_nested_stays_on_caller;
        ] );
      ( "execution",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "prepared inputs pinned" `Quick
            test_prepared_digests;
          Alcotest.test_case "outputs verified" `Quick test_outputs_verified;
          Alcotest.test_case "failure reported" `Quick test_failure_reported;
          Alcotest.test_case "eqntott value" `Quick
            test_eqntott_reference_value;
          Alcotest.test_case "estimate compiles what run compiles" `Quick
            test_estimate_follows_run;
        ] );
      ( "layout",
        [
          Alcotest.test_case "skew" `Quick test_layout_skew;
          Alcotest.test_case "overlap" `Quick test_layout_overlap;
        ] );
      ( "tables",
        [
          Alcotest.test_case "row" `Quick test_tables_row;
          Alcotest.test_case "gated vs forced" `Quick
            test_tables_gated_vs_forced;
          Alcotest.test_case "SCHED image_add16 cell" `Quick
            test_tables_sched_cell;
        ] );
      ( "disambiguation",
        [
          Alcotest.test_case "Table II cell discharges a guard" `Quick
            test_elision_on_table2;
          Alcotest.test_case "force-guards overrides" `Quick
            test_force_guards_overrides;
          Alcotest.test_case "differential under assumed layout" `Quick
            test_differential_assume_layout;
          Alcotest.test_case "elided matches forced" `Slow
            test_elided_matches_forced;
        ] );
    ]
