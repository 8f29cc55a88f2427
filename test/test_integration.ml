(* End-to-end integration tests: every workload on every machine at every
   optimization level must produce the reference output; the run-time
   dispatch must route misaligned or overlapping inputs to the safe loop;
   the profitability-gated pipeline must never lose to its own baseline. *)

module W = Mac_workloads.Workloads
module Tables = Mac_workloads.Tables
module Machine = Mac_machine.Machine
module Interp = Mac_sim.Interp
module Pipeline = Mac_vpo.Pipeline
module Coalesce = Mac_core.Coalesce

let machines = Machine.all @ [ Test32.machine ]
let levels = Pipeline.[ O0; O1; O2; O3; O4 ]
let size = 24 (* 24x24 images: quick but past all the unroll factors *)

let test_all_correct () =
  List.iter
    (fun bench ->
      List.iter
        (fun machine ->
          List.iter
            (fun level ->
              let o = W.run ~size ~machine ~level bench in
              match o.error with
              | None -> ()
              | Some e ->
                Alcotest.failf "%s on %s at %s: %s" bench.W.name
                  machine.Machine.name
                  (Pipeline.level_to_string level)
                  e)
            levels)
        machines)
    (W.dotproduct :: W.all)

(* The same, under the forced (paper-measurement) configuration: the
   transformation must stay correct even where it is unprofitable. *)
let test_all_correct_forced () =
  let coalesce =
    { Coalesce.default with respect_profitability = false;
      icache_guard = false }
  in
  List.iter
    (fun bench ->
      List.iter
        (fun machine ->
          let o = W.run ~size ~coalesce ~machine ~level:Pipeline.O4 bench in
          match o.error with
          | None -> ()
          | Some e ->
            Alcotest.failf "%s forced on %s: %s" bench.W.name
              machine.Machine.name e)
        machines)
    (W.dotproduct :: W.all)

(* Misaligned buffers: correctness must be preserved by dispatching to the
   safe loop. *)
let test_misaligned_dispatch () =
  let layout = { W.default_layout with skew = 2 } in
  List.iter
    (fun bench ->
      let o = W.run ~layout ~size ~machine:Machine.alpha ~level:Pipeline.O4
          bench in
      (match o.error with
      | None -> ()
      | Some e -> Alcotest.failf "%s misaligned: %s" bench.W.name e);
      (* and the safe loop actually ran: find a coalesced loop and check
         its main-loop label count is zero *)
      List.iter
        (fun (_, reports) ->
          List.iter
            (fun (r : Coalesce.loop_report) ->
              if r.status = Coalesce.Coalesced then
                (* all Lmain labels of this benchmark should be cold *)
                List.iter
                  (fun (l, count) ->
                    if
                      String.length l >= 5 && String.sub l 0 5 = "Lmain"
                      && count > 0
                    then
                      Alcotest.failf
                        "%s: coalesced loop %s ran on misaligned data"
                        bench.W.name l)
                  o.metrics.label_counts)
            reports)
        o.reports)
    [ W.dotproduct;
      Option.get (W.find "image_add");
      Option.get (W.find "image_add16");
      Option.get (W.find "mirror") ]

(* Overlapping buffers: the alias checks must send execution to the safe
   loop, and the outcome must match the (overlap-aware) reference
   semantics, i.e. equal the O0 run. *)
let test_overlap_dispatch () =
  let layout = { W.default_layout with overlap = true } in
  List.iter
    (fun name ->
      let bench = Option.get (W.find name) in
      let run level =
        let o = W.run ~layout ~size ~machine:Machine.alpha ~level bench in
        (o.value, o.metrics.insts)
      in
      let v0, _ = run Pipeline.O0 in
      let v4, _ = run Pipeline.O4 in
      Alcotest.(check int64)
        (name ^ ": overlap semantics preserved")
        v0 v4)
    [ "dotproduct"; "image_add"; "mirror"; "translate" ]

(* With the profitability gate on (the default pipeline), higher levels
   never lose to lower ones by more than the constant preheader checks. *)
let test_gated_never_loses () =
  List.iter
    (fun bench ->
      List.iter
        (fun machine ->
          let cycles level =
            (W.run ~size ~machine ~level bench).metrics.cycles
          in
          let o2 = cycles Pipeline.O2 in
          let o4 = cycles Pipeline.O4 in
          (* tolerance: dispatch checks execute once per loop entry *)
          let tolerance = o2 / 20 in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: O4 (%d) not worse than O2 (%d)"
               bench.W.name machine.Machine.name o4 o2)
            true
            (o4 <= o2 + tolerance))
        machines)
    W.all

(* The cross-architecture shapes of the paper, on the forced configuration
   the measurements used (small size for speed; EXPERIMENTS.md re-runs at
   the paper's 500x500). *)
let test_paper_shapes () =
  let rows machine = Tables.table ~size:48 ~machine () in
  (* Alpha: every benchmark gains from full coalescing *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "alpha %s gains (%f)" r.Tables.bench.W.name
           (Table_row.savings_all r))
        true
        (Table_row.savings_all r > 0.0))
    (rows Machine.alpha);
  (* 88100: loads-only beats loads+stores on every benchmark *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "88100 %s: stores hurt" r.Tables.bench.W.name)
        true
        (r.Tables.loads_stores >= r.Tables.loads))
    (rows Machine.mc88100);
  (* 68030: coalescing never helps *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "68030 %s loses" r.Tables.bench.W.name)
        true
        (Table_row.savings_all r <= 0.0))
    (rows Machine.mc68030);
  (* every row verified correct *)
  List.iter
    (fun machine ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s verified" machine.Machine.name
               r.Tables.bench.W.name)
            true r.Tables.verified)
        (rows machine))
    Machine.all

(* eqntott's gain must stay small (the paper: 3.86% on Alpha). *)
let test_eqntott_small_gain () =
  let r =
    Table_row.row ~size:48 ~machine:Machine.alpha
      (Option.get (W.find "eqntott"))
  in
  let s = Table_row.savings_all r in
  Alcotest.(check bool)
    (Printf.sprintf "eqntott savings small (%f)" s)
    true
    (s > 0.0 && s < 15.0)

(* Memory reference counts: the headline 75% reduction for 16-bit data on
   the Alpha (Fig. 1 discussion). *)
let test_memory_reference_reduction () =
  let bench = W.dotproduct in
  let refs level =
    let o = W.run ~size:256 ~machine:Machine.alpha ~level bench in
    o.metrics.loads + o.metrics.stores
  in
  let base = refs Pipeline.O2 in
  let coal = refs Pipeline.O4 in
  Alcotest.(check bool)
    (Printf.sprintf "close to 4x fewer references (%d -> %d)" base coal)
    true
    (coal * 7 / 2 <= base && base <= coal * 9 / 2)

let () =
  Alcotest.run "integration"
    [
      ( "correctness",
        [
          Alcotest.test_case "all benchmarks/machines/levels" `Slow
            test_all_correct;
          Alcotest.test_case "forced coalescing stays correct" `Slow
            test_all_correct_forced;
        ] );
      ( "runtime dispatch",
        [
          Alcotest.test_case "misaligned buffers" `Quick
            test_misaligned_dispatch;
          Alcotest.test_case "overlapping buffers" `Quick
            test_overlap_dispatch;
        ] );
      ( "profitability",
        [
          Alcotest.test_case "gated pipeline never loses" `Slow
            test_gated_never_loses;
        ] );
      ( "paper shapes",
        [
          Alcotest.test_case "table II/III/68030" `Slow test_paper_shapes;
          Alcotest.test_case "eqntott small" `Quick test_eqntott_small_gain;
          Alcotest.test_case "75 percent fewer references" `Quick
            test_memory_reference_reduction;
        ] );
    ]
