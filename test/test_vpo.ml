(* Tests for the pass pipeline: levels, configuration switches, structural
   invariants of the output. *)

open Mac_rtl
module Pipeline = Mac_vpo.Pipeline
module Machine = Mac_machine.Machine
module Coalesce = Mac_core.Coalesce

let src = Mac_workloads.Workloads.dotproduct_src

let compile ?coalesce ?legalize_first ?strength_reduce ?regalloc ?schedule
    ~level machine =
  let cfg =
    Pipeline.config ~level ?coalesce ?legalize_first ?strength_reduce
      ?regalloc ?schedule machine
  in
  Pipeline.compile_source cfg src

let test_levels_roundtrip () =
  List.iter
    (fun l ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Pipeline.level_to_string l))
        (Option.map Pipeline.level_to_string
           (Pipeline.level_of_string (Pipeline.level_to_string l))))
    Pipeline.[ O0; O1; O2; O3; O4 ];
  Alcotest.(check bool) "lowercase accepted" true
    (Pipeline.level_of_string "o3" = Some Pipeline.O3);
  Alcotest.(check bool) "garbage rejected" true
    (Pipeline.level_of_string "O9" = None)

let test_output_always_valid () =
  List.iter
    (fun machine ->
      List.iter
        (fun level ->
          let compiled = compile ~level machine in
          List.iter
            (fun f ->
              match
                Mac_verify.Rtlcheck.structural_checks ~pass:"output" f
              with
              | [] -> ()
              | d :: _ ->
                Alcotest.failf "%s on %s: %s"
                  (Pipeline.level_to_string level)
                  machine.Machine.name
                  (Mac_verify.Diagnostic.to_string d))
            compiled.funcs)
        Pipeline.[ O0; O1; O2; O3; O4 ])
    (Machine.all @ [ Machine.test32 ])

let count_insts (compiled : Pipeline.compiled) =
  List.fold_left
    (fun acc f -> acc + List.length f.Func.body)
    0 compiled.funcs

let test_levels_monotone_effort () =
  (* O1 must shrink O0; legalization on Alpha always expands narrow refs *)
  let o0 = count_insts (compile ~level:Pipeline.O0 Machine.test32) in
  let o1 = count_insts (compile ~level:Pipeline.O1 Machine.test32) in
  Alcotest.(check bool) "O1 no larger than O0" true (o1 <= o0)

let test_reports_per_level () =
  let statuses level =
    (compile ~level Machine.alpha).reports
    |> List.concat_map (fun (_, rs) ->
           List.map (fun (r : Coalesce.loop_report) -> r.status) rs)
  in
  Alcotest.(check (list reject)) "no reports at O1" [] (statuses Pipeline.O1);
  Alcotest.(check bool) "unrolled at O2" true
    (List.for_all (( = ) Coalesce.Unrolled_only) (statuses Pipeline.O2));
  Alcotest.(check bool) "coalesced at O4" true
    (List.exists (( = ) Coalesce.Coalesced) (statuses Pipeline.O4))

let test_o3_does_not_touch_stores () =
  (* at O3 only load groups may form *)
  let compiled = compile ~level:Pipeline.O3 Machine.alpha in
  List.iter
    (fun (_, rs) ->
      List.iter
        (fun (r : Coalesce.loop_report) ->
          Alcotest.(check int) "no store groups at O3" 0 r.store_groups)
        rs)
    compiled.reports

let test_legalize_first_disables_coalescing () =
  let compiled =
    compile ~legalize_first:true ~level:Pipeline.O4 Machine.alpha
  in
  List.iter
    (fun (_, rs) ->
      List.iter
        (fun (r : Coalesce.loop_report) ->
          Alcotest.(check bool) "nothing to coalesce after legalization" true
            (r.status <> Coalesce.Coalesced))
        rs)
    compiled.reports

let test_no_narrow_refs_on_word_data () =
  (* a long[] kernel has nothing to widen on a 32-bit machine *)
  let cfg = Pipeline.config ~level:Pipeline.O4 Machine.mc88100 in
  let compiled =
    Pipeline.compile_source cfg
      "long sum(long a[], int n) { long s = 0; int i; for (i = 0; i < n; \
       i++) s += a[i]; return s; }"
  in
  List.iter
    (fun (_, rs) ->
      List.iter
        (fun (r : Coalesce.loop_report) ->
          Alcotest.(check bool) "wide data not processed" true
            (r.status = Coalesce.No_narrow_refs))
        rs)
    compiled.reports

let test_alpha_output_has_no_narrow_memory () =
  (* legalization invariant: the final Alpha code contains only legal
     widths *)
  let compiled = compile ~level:Pipeline.O4 Machine.alpha in
  List.iter
    (fun f ->
      List.iter
        (fun (i : Rtl.inst) ->
          match Rtl.mem_of i.kind with
          | Some m ->
            Alcotest.(check bool)
              (Printf.sprintf "legal width in %s" (Rtl.to_string i.kind))
              true
              (Machine.legal_load Machine.alpha m.width ~aligned:m.aligned
              || Machine.legal_store Machine.alpha m.width ~aligned:m.aligned)
          | None -> ())
        f.Func.body)
    compiled.funcs

(* Every pinned compile reproduces its digest (test/compile_pins.ml). *)
let test_compile_pins () =
  let got =
    List.map (fun c -> (Compile_pins.cell_name c, Compile_pins.digest c))
      Compile_pins.cells
  in
  Alcotest.(check int) "cells" 240 (List.length got);
  let wrong =
    List.filter_map
      (fun (n, d) ->
        match List.assoc_opt n Compile_pins.expected with
        | Some e when String.equal e d -> None
        | e ->
          Some
            (Printf.sprintf "%s: %s, pinned %s" n d
               (Option.value e ~default:"nothing")))
      got
  in
  if wrong <> [] then
    Alcotest.failf "%d of 240 compiles changed:\n%s" (List.length wrong)
      (String.concat "\n" wrong)

(* The names [test_intercept] is called with, in order, over one Vfull
   compile of the dot product on the Alpha. With the intercept armed
   every classic pass runs in every round, so each round shows all six. *)
let intercepted cfg =
  let seen = ref [] in
  Pipeline.test_intercept := Some (fun pass _ -> seen := pass :: !seen);
  Fun.protect
    ~finally:(fun () -> Pipeline.test_intercept := None)
    (fun () -> ignore (Pipeline.compile_source cfg src));
  List.rev !seen

let classic_round = "simplify copyprop cse combine cleanflow dce"

(* [n] classic rounds, as the intercept sees them *)
let rounds n = String.concat " " (List.init n (fun _ -> classic_round))

(* The pass order, pinned: at O4 with every optional pass on, and at O2. *)
let test_pass_sequence () =
  let seq cfg = String.concat " " (intercepted cfg) in
  Alcotest.(check string) "O4-full"
    (String.concat " "
       [ rounds 10; "strength-reduce coalesce"; rounds 2; "legalize";
         rounds 2; "schedule pipeline-sched regalloc" ])
    (seq
       (Pipeline.config ~level:Pipeline.O4 ~verify:Pipeline.Vfull
          ~strength_reduce:true ~schedule:true ~pipeline_sched:true
          ~regalloc:32 Machine.alpha));
  Alcotest.(check string) "O2"
    (String.concat " " [ rounds 3; "coalesce"; rounds 3; "legalize"; rounds 2 ])
    (seq (Pipeline.config ~level:Pipeline.O2 ~verify:Pipeline.Vfull
            Machine.alpha))

let () =
  Alcotest.run "vpo"
    [
      ( "levels",
        [
          Alcotest.test_case "roundtrip" `Quick test_levels_roundtrip;
          Alcotest.test_case "always valid" `Quick test_output_always_valid;
          Alcotest.test_case "monotone effort" `Quick
            test_levels_monotone_effort;
          Alcotest.test_case "reports per level" `Quick
            test_reports_per_level;
          Alcotest.test_case "O3 loads only" `Quick
            test_o3_does_not_touch_stores;
        ] );
      ( "switches",
        [
          Alcotest.test_case "legalize-first ablation" `Quick
            test_legalize_first_disables_coalescing;
          Alcotest.test_case "no narrow refs" `Quick
            test_no_narrow_refs_on_word_data;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "alpha legal widths" `Quick
            test_alpha_output_has_no_narrow_memory;
        ] );
      ( "pins",
        [
          Alcotest.test_case "240 compiles byte-identical" `Quick
            test_compile_pins;
          Alcotest.test_case "pass sequence" `Quick test_pass_sequence;
        ] );
    ]
