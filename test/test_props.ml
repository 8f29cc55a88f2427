(* The heavyweight correctness property: random array kernels, random
   buffer layouts (including misaligned and overlapping ones), compiled at
   every optimization level for every machine, must leave memory in exactly
   the state the unoptimized build does. This exercises the whole stack:
   lowering, the classic optimizations, unrolling with its divisibility
   dispatch, coalescing with its alignment and alias checks, legalization
   and the simulator. *)

open Mac_rtl
module Machine = Mac_machine.Machine
module Interp = Mac_sim.Interp
module Pipeline = Mac_vpo.Pipeline

open Kernel_gen

let run_kernel k ~machine ~level =
  Result.map snd (Kernel_gen.run_kernel k ~machine ~level)

let prop_levels_agree machine =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "all levels leave identical memory on %s"
         machine.Machine.name)
    ~count:60 arbitrary_kernel
    (fun k ->
      let reference = run_kernel k ~machine:Test32.machine ~level:Pipeline.O0 in
      match reference with
      | Error _ -> QCheck.assume_fail () (* UB-ish input; skip *)
      | Ok expected ->
        List.for_all
          (fun level ->
            match run_kernel k ~machine ~level with
            | Ok got -> Bytes.equal got expected
            | Error _ -> false)
          Pipeline.[ O0; O1; O2; O3; O4 ])

(* Forced coalescing (no profitability gate, no i-cache guard) must also
   preserve semantics everywhere. *)
let prop_forced_coalescing_correct machine =
  let coalesce =
    { Mac_core.Coalesce.default with respect_profitability = false;
      icache_guard = false }
  in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "forced coalescing preserves memory on %s"
         machine.Machine.name)
    ~count:40 arbitrary_kernel
    (fun k ->
      match run_kernel k ~machine:Test32.machine ~level:Pipeline.O0 with
      | Error _ -> QCheck.assume_fail ()
      | Ok expected -> (
        let cfg = Pipeline.config ~level:Pipeline.O4 ~coalesce machine in
        let compiled = Pipeline.compile_source cfg (kernel_src k) in
        match exec k ~machine compiled.funcs with
        | Ok (_, got) -> Bytes.equal got expected
        | Error _ -> false))

(* Strength reduction and tight register allocation layered on top of the
   full pipeline must also preserve memory exactly. *)
let prop_strength_and_regalloc_correct machine =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "remainder loops + strength reduction + 9-register allocation on \
          %s"
         machine.Machine.name)
    ~count:40 arbitrary_kernel
    (fun k ->
      match run_kernel k ~machine:Test32.machine ~level:Pipeline.O0 with
      | Error _ -> QCheck.assume_fail ()
      | Ok expected -> (
        let coalesce =
          { Mac_core.Coalesce.default with remainder_loop = true }
        in
        let cfg =
          Pipeline.config ~level:Pipeline.O4 ~coalesce ~strength_reduce:true
            ~regalloc:9 machine
        in
        let compiled = Pipeline.compile_source cfg (kernel_src k) in
        match exec k ~machine compiled.funcs with
        | Ok (_, got) ->
          (* Spill slots live in a stack frame at the top of memory, which
             the unallocated reference build never touches — compare only
             below the stack area. *)
          let data_len = mem_size - 1024 in
          Bytes.equal (Bytes.sub got 0 data_len) (Bytes.sub expected 0 data_len)
        | Error _ -> false))

(* Certified guard elision must be invisible. Whenever the layout facts
   are sound by construction — alignment asserted only for unskewed
   buffers, provenance only for actually disjoint ones — the statically
   elided build must leave memory bit-identical to the fully guarded
   (--force-guards) build, and trap exactly when it does. Verification is
   at Vfull, so the audit also re-checks every certificate per kernel. *)
let kernel_facts k =
  let module Linform = Mac_opt.Linform in
  let reg = Reg.make in
  let eb i = elem_bytes k.elems.(i) in
  let len i = (k.n + 2) * eb i in
  let disjoint i j =
    k.bases.(i) + len i <= k.bases.(j) || k.bases.(j) + len j <= k.bases.(i)
  in
  let aligns =
    List.filter_map
      (fun i -> if k.skews.(i) = 0 then Some (reg i, 3) else None)
      [ 0; 1; 2 ]
  in
  let allocs =
    List.filter_map
      (fun i ->
        if List.for_all (fun j -> j = i || disjoint i j) [ 0; 1; 2 ] then
          Some
            ( reg i,
              i,
              Linform.add
                (Linform.const (Int64.of_int (2 * eb i)))
                (Linform.mul_const
                   (Linform.entry (reg 3))
                   (Int64.of_int (eb i))) )
        else None)
      [ 0; 1; 2 ]
  in
  { Mac_core.Disambig.aligns; allocs; values = []; nonnegs = [ reg 3 ] }

let prop_elision_invisible machine =
  let coalesce =
    { Mac_core.Coalesce.default with respect_profitability = false;
      icache_guard = false }
  in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "elided and guarded builds leave identical memory on %s"
         machine.Machine.name)
    ~count:40 arbitrary_kernel
    (fun k ->
      let facts = [ ("kernel", kernel_facts k) ] in
      let build force_guards =
        let cfg =
          Pipeline.config ~level:Pipeline.O4
            ~coalesce:{ coalesce with Mac_core.Coalesce.force_guards }
            ~facts ~verify:Pipeline.Vfull machine
        in
        let compiled = Pipeline.compile_source cfg (kernel_src k) in
        Result.map
          (fun ((r : Interp.result), heap) -> (r.value, heap))
          (exec k ~machine compiled.funcs)
      in
      match (build false, build true) with
      | Ok (va, ha), Ok (vb, hb) -> Int64.equal va vb && Bytes.equal ha hb
      | Error _, Error _ -> true
      | _ -> false)

let () =
  Alcotest.run "props"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_levels_agree (Machine.all @ [ Test32.machine ])) );
      ( "forced",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_forced_coalescing_correct Machine.all) );
      ( "extensions",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_strength_and_regalloc_correct
             [ Machine.alpha; Test32.machine ]) );
      ( "elision",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_elision_invisible Machine.all) );
    ]
