(* Tests for the paper's core algorithms: linear address forms, memory
   reference partitioning, hazard analysis (Fig. 4), run-time checks
   (Fig. 5), wide-reference insertion and the full driver (Fig. 2). *)

open Mac_rtl
module Linform = Mac_opt.Linform
module Partition = Mac_core.Partition
module Hazard = Mac_core.Hazard
module Checks = Mac_core.Checks
module Transform = Mac_core.Transform
module Coalesce = Mac_core.Coalesce
module Profitability = Mac_core.Profitability
module Machine = Mac_machine.Machine
module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp

let reg = Reg.make

let mk_counter = ref 0

let mk k =
  incr mk_counter;
  { Rtl.uid = 100000 + !mk_counter; kind = k }

let mem ?(disp = 0L) ?(width = Width.W16) ?(aligned = true) base =
  { Rtl.base; disp; width; aligned }

(* --- linform --- *)

let lf_const = Linform.const
let lf_entry = Linform.entry

let test_linform_algebra () =
  let a = Linform.add (lf_entry (reg 1)) (lf_const 4L) in
  let b = Linform.add (lf_entry (reg 1)) (lf_const 6L) in
  Alcotest.(check bool) "same terms" true (Linform.same_terms a b);
  Alcotest.(check bool) "not equal" false (Linform.equal a b);
  let diff = Linform.sub b a in
  Alcotest.(check (option int64)) "difference is constant" (Some 2L)
    (Linform.as_const diff);
  let scaled = Linform.mul_const a 3L in
  Alcotest.(check bool) "coeff scales" true
    (Linform.equal scaled
       { Linform.const = 12L; terms = [ (Linform.Entry (reg 1), 3L) ] });
  let zero = Linform.sub a a in
  Alcotest.(check (option int64)) "x - x = 0" (Some 0L)
    (Linform.as_const zero);
  let env =
    Linform.step (Linform.initial_env ())
      (Rtl.Binop (Rtl.Shl, reg 4, Rtl.Reg (reg 1), Rtl.Imm 3L))
  in
  Alcotest.(check bool) "shl is mul" true
    (Linform.equal (Linform.eval_reg env (reg 4))
       (Linform.mul_const (lf_entry (reg 1)) 8L))

let test_linform_step () =
  let env = Linform.initial_env () in
  (* t = i << 1; addr = base + t; i = i + 1; addr2 = base + (i << 1) *)
  let env =
    Linform.step env (Rtl.Binop (Rtl.Shl, reg 4, Rtl.Reg (reg 2), Rtl.Imm 1L))
  in
  let env =
    Linform.step env
      (Rtl.Binop (Rtl.Add, reg 5, Rtl.Reg (reg 0), Rtl.Reg (reg 4)))
  in
  let addr1 = Linform.eval_reg env (reg 5) in
  let env =
    Linform.step env (Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L))
  in
  let env =
    Linform.step env (Rtl.Binop (Rtl.Shl, reg 6, Rtl.Reg (reg 2), Rtl.Imm 1L))
  in
  let env =
    Linform.step env
      (Rtl.Binop (Rtl.Add, reg 7, Rtl.Reg (reg 0), Rtl.Reg (reg 6)))
  in
  let addr2 = Linform.eval_reg env (reg 7) in
  Alcotest.(check bool) "same symbolic part" true
    (Linform.same_terms addr1 addr2);
  Alcotest.(check (option int64)) "offset difference is the step * scale"
    (Some 2L)
    (Linform.as_const (Linform.sub addr2 addr1))

let test_linform_opaque () =
  let env = Linform.initial_env () in
  let env =
    Linform.step env
      (Rtl.Load { dst = reg 3; src = mem (reg 0); sign = Rtl.Signed })
  in
  let v = Linform.eval_reg env (reg 3) in
  Alcotest.(check bool) "loaded value is opaque" true
    (match v.Linform.terms with
    | [ (Linform.Opaque _, 1L) ] -> true
    | _ -> false);
  (* a multiply of two registers is opaque too *)
  let env =
    Linform.step env
      (Rtl.Binop (Rtl.Mul, reg 4, Rtl.Reg (reg 0), Rtl.Reg (reg 1)))
  in
  Alcotest.(check bool) "reg*reg opaque" true
    (match (Linform.eval_reg env (reg 4)).Linform.terms with
    | [ (Linform.Opaque _, 1L) ] -> true
    | _ -> false)

(* --- partition --- *)

(* The unrolled-by-2 shape: two loads from a[i], a[i+1] and stores to b. *)
let body_two_arrays () =
  [
    mk (Rtl.Load { dst = reg 4; src = mem ~disp:0L (reg 0); sign = Rtl.Signed });
    mk (Rtl.Store { src = Rtl.Reg (reg 4); dst = mem ~disp:0L (reg 1) });
    mk (Rtl.Load { dst = reg 5; src = mem ~disp:2L (reg 0); sign = Rtl.Signed });
    mk (Rtl.Store { src = Rtl.Reg (reg 5); dst = mem ~disp:2L (reg 1) });
    mk (Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 4L));
    mk (Rtl.Binop (Rtl.Add, reg 1, Rtl.Reg (reg 1), Rtl.Imm 4L));
  ]

let test_partition_analyze () =
  let a = Partition.analyze (body_two_arrays ()) in
  Alcotest.(check int) "two partitions" 2 (List.length a.partitions);
  let p0 = List.hd a.partitions in
  Alcotest.(check int) "first partition has the two loads" 2
    (List.length p0.refs);
  Alcotest.(check (list int64)) "offsets" [ 0L; 2L ] (Partition.offsets p0);
  Alcotest.(check (option int64)) "advance 4 bytes/iteration" (Some 4L)
    (Partition.advance a p0)

let test_partition_unknown_advance () =
  (* base register advanced by a register amount: advance unknown *)
  let body =
    [
      mk (Rtl.Load { dst = reg 4; src = mem (reg 0); sign = Rtl.Signed });
      mk (Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Reg (reg 2)));
    ]
  in
  let a = Partition.analyze body in
  Alcotest.(check (option int64)) "advance unknown" None
    (Partition.advance a (List.hd a.partitions))

let test_select_load_groups () =
  let a = Partition.analyze (body_two_arrays ()) in
  let p0 = List.hd a.partitions in
  (match Partition.select_load_groups p0 ~wide:Width.W32 with
  | [ g ] ->
    Alcotest.(check int64) "window start" 0L g.window_start;
    Alcotest.(check int) "two members" 2 (List.length g.members)
  | gs -> Alcotest.failf "expected one group, got %d" (List.length gs));
  (* a single load cannot form a group *)
  let single =
    Partition.analyze
      [ mk (Rtl.Load { dst = reg 4; src = mem (reg 0); sign = Rtl.Signed }) ]
  in
  Alcotest.(check int) "no group of one" 0
    (List.length
       (Partition.select_load_groups
          (List.hd single.partitions)
          ~wide:Width.W32))

let test_select_store_groups_full_coverage () =
  let a = Partition.analyze (body_two_arrays ()) in
  let p_store = List.nth a.partitions 1 in
  (match Partition.select_store_groups p_store ~wide:Width.W32 with
  | [ g ] -> Alcotest.(check int) "two stores" 2 (List.length g.members)
  | _ -> Alcotest.fail "expected a full-coverage store group");
  (* with a hole (only offset 0 and 3 of a 4-byte window) no group forms *)
  let holey =
    Partition.analyze
      [
        mk (Rtl.Store { src = Rtl.Imm 1L;
                        dst = mem ~width:Width.W8 ~disp:0L (reg 1) });
        mk (Rtl.Store { src = Rtl.Imm 2L;
                        dst = mem ~width:Width.W8 ~disp:3L (reg 1) });
      ]
  in
  Alcotest.(check int) "holes rejected" 0
    (List.length
       (Partition.select_store_groups (List.hd holey.partitions)
          ~wide:Width.W32))

let test_select_groups_aligned_down_candidates () =
  (* tap pattern x, x+1, x+2 over 8 copies: starts at offset 0 cover more
     than starts at 1 or 2 *)
  let body =
    List.concat_map
      (fun j ->
        List.map
          (fun t ->
            mk
              (Rtl.Load
                 { dst = reg (10 + j);
                   src = mem ~width:Width.W8 ~disp:(Int64.of_int (j + t))
                           (reg 0);
                   sign = Rtl.Signed }))
          [ 0; 1; 2 ])
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    @ [ mk (Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 8L)) ]
  in
  let a = Partition.analyze body in
  let groups =
    Partition.select_load_groups (List.hd a.partitions) ~wide:Width.W64
  in
  Alcotest.(check bool) "at least one group" true (groups <> []);
  let g = List.hd groups in
  Alcotest.(check int64) "aligned window start" 0L g.window_start;
  (* all selected windows share the residue *)
  List.iter
    (fun (g' : Partition.group) ->
      Alcotest.(check int64) "residue" 0L (Int64.rem g'.window_start 8L))
    groups

(* --- hazard --- *)

let group_of body ~loads =
  let a = Partition.analyze body in
  let p =
    List.find
      (fun (p : Partition.t) ->
        List.exists
          (fun (r : Partition.ref_info) ->
            match r.dir with
            | Partition.Dload _ -> loads
            | Partition.Dstore _ -> not loads)
          p.refs)
      a.partitions
  in
  let groups =
    if loads then Partition.select_load_groups p ~wide:Width.W32
    else Partition.select_store_groups p ~wide:Width.W32
  in
  (a, List.hd groups)

let test_hazard_clean_loads () =
  let body = body_two_arrays () in
  let analysis, group = group_of body ~loads:true in
  match Hazard.check ~body ~analysis ~group with
  | Hazard.Safe pairs ->
    (* the interleaved stores to the other array need run-time checks *)
    Alcotest.(check int) "one alias pair" 1 (List.length pairs)
  | Hazard.Unsafe r -> Alcotest.failf "unexpectedly unsafe: %s" r

let test_hazard_same_partition_store_blocks_load () =
  (* store to a[i] between the loads of a[i] and a[i] again: the second
     load's bytes are written in between *)
  let body =
    [
      mk (Rtl.Load { dst = reg 4; src = mem ~disp:0L (reg 0);
                     sign = Rtl.Signed });
      mk (Rtl.Store { src = Rtl.Imm 7L; dst = mem ~disp:2L (reg 0) });
      mk (Rtl.Load { dst = reg 5; src = mem ~disp:2L (reg 0);
                     sign = Rtl.Signed });
      mk (Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 4L));
    ]
  in
  let analysis, group = group_of body ~loads:true in
  match Hazard.check ~body ~analysis ~group with
  | Hazard.Unsafe _ -> ()
  | Hazard.Safe _ -> Alcotest.fail "overlapping store must be a hazard"

let test_hazard_disjoint_same_partition_store_ok () =
  (* in-place update: load a[i]; store a[i]; load a[i+1]; store a[i+1] —
     the store never overlaps the *later* loads *)
  let body =
    [
      mk (Rtl.Load { dst = reg 4; src = mem ~disp:0L (reg 0);
                     sign = Rtl.Signed });
      mk (Rtl.Store { src = Rtl.Reg (reg 4); dst = mem ~disp:0L (reg 0) });
      mk (Rtl.Load { dst = reg 5; src = mem ~disp:2L (reg 0);
                     sign = Rtl.Signed });
      mk (Rtl.Store { src = Rtl.Reg (reg 5); dst = mem ~disp:2L (reg 0) });
      mk (Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 4L));
    ]
  in
  let analysis, group = group_of body ~loads:true in
  match Hazard.check ~body ~analysis ~group with
  | Hazard.Safe pairs ->
    Alcotest.(check int) "no alias checks needed in-partition" 0
      (List.length pairs)
  | Hazard.Unsafe r -> Alcotest.failf "in-place update rejected: %s" r

let test_hazard_call_blocks () =
  let body =
    [
      mk (Rtl.Load { dst = reg 4; src = mem ~disp:0L (reg 0);
                     sign = Rtl.Signed });
      mk (Rtl.Call { dst = None; func = "g"; args = [] });
      mk (Rtl.Load { dst = reg 5; src = mem ~disp:2L (reg 0);
                     sign = Rtl.Signed });
    ]
  in
  let analysis, group = group_of body ~loads:true in
  match Hazard.check ~body ~analysis ~group with
  | Hazard.Unsafe _ -> ()
  | Hazard.Safe _ -> Alcotest.fail "call must be a barrier"

let test_hazard_store_group_reordering_blocked () =
  (* delaying the store of b[i] past a store that may alias (other
     partition) requires a run-time check; past an overlapping
     same-partition store it is plain unsafe *)
  let body_unsafe =
    [
      mk (Rtl.Store { src = Rtl.Imm 1L; dst = mem ~disp:0L (reg 1) });
      mk (Rtl.Store { src = Rtl.Imm 2L; dst = mem ~disp:0L (reg 1) });
      (* duplicate offset: second write wins, fine — but now a load of the
         same bytes in between: *)
      mk (Rtl.Store { src = Rtl.Imm 3L; dst = mem ~disp:2L (reg 1) });
      mk (Rtl.Binop (Rtl.Add, reg 1, Rtl.Reg (reg 1), Rtl.Imm 4L));
    ]
  in
  let body_with_load =
    [
      mk (Rtl.Store { src = Rtl.Imm 1L; dst = mem ~disp:0L (reg 1) });
      mk (Rtl.Load { dst = reg 5; src = mem ~disp:0L (reg 1);
                     sign = Rtl.Signed });
      mk (Rtl.Store { src = Rtl.Imm 3L; dst = mem ~disp:2L (reg 1) });
      mk (Rtl.Binop (Rtl.Add, reg 1, Rtl.Reg (reg 1), Rtl.Imm 4L));
    ]
  in
  (match group_of body_with_load ~loads:false with
  | analysis, group -> (
    match Hazard.check ~body:body_with_load ~analysis ~group with
    | Hazard.Unsafe _ -> ()
    | Hazard.Safe _ ->
      Alcotest.fail "load of delayed bytes must block store coalescing"));
  (* the duplicate-offset body is safe: inserts apply in order *)
  match group_of body_unsafe ~loads:false with
  | analysis, group -> (
    match Hazard.check ~body:body_unsafe ~analysis ~group with
    | Hazard.Safe _ -> ()
    | Hazard.Unsafe r -> Alcotest.failf "duplicate offsets rejected: %s" r)

(* --- profitability --- *)

let profit_fn () =
  let f = Func.create ~name:"t" ~params:[ reg 0; reg 1 ] in
  f.next_reg <- 6;
  f

(* The coalesced shape of [body_two_arrays]: one 32-bit load and one
   32-bit store move both halfwords. *)
let body_two_arrays_wide () =
  [
    mk (Rtl.Load
          { dst = reg 4; src = mem ~width:Width.W32 (reg 0); sign = Rtl.Signed });
    mk (Rtl.Store { src = Rtl.Reg (reg 4); dst = mem ~width:Width.W32 (reg 1) });
    mk (Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 4L));
    mk (Rtl.Binop (Rtl.Add, reg 1, Rtl.Reg (reg 1), Rtl.Imm 4L));
  ]

(* Every variant of a loop is decided against one price of the original
   body: [analyze] forces the shared [before] once, however many variants
   it decides, and that price is the body's own [price]. On the Alpha the
   original's halfword references each cost an unaligned load and an
   extract, so the wide variant is cheaper and the identical one is not. *)
let test_profitability_prices_before_once () =
  let machine = Machine.alpha and mode = Profitability.Schedule in
  let before_body = body_two_arrays () in
  let f = profit_fn () in
  let forced = ref 0 in
  let before =
    lazy
      (incr forced;
       Profitability.price f ~machine ~mode before_body)
  in
  let wide =
    Profitability.analyze f ~machine ~mode ~before
      ~after:(body_two_arrays_wide ())
  in
  let same =
    Profitability.analyze f ~machine ~mode ~before ~after:(body_two_arrays ())
  in
  Alcotest.(check int) "original body priced once" 1 !forced;
  let own body = Profitability.price (profit_fn ()) ~machine ~mode body in
  Alcotest.(check int) "before is the original's price"
    (own (body_two_arrays ())) wide.before_cycles;
  Alcotest.(check int) "variants share the before price" wide.before_cycles
    same.before_cycles;
  Alcotest.(check int) "after is the variant's price"
    (own (body_two_arrays_wide ())) wide.after_cycles;
  Alcotest.(check bool) "wide variant profitable" true wide.profitable;
  Alcotest.(check bool) "identical variant not profitable" false
    same.profitable

(* --- checks --- *)

let test_materialize () =
  let f = Func.create ~name:"t" ~params:[ reg 0; reg 1 ] in
  let form =
    Linform.add
      (Linform.add (Linform.mul_const (lf_entry (reg 1)) 4L)
         (lf_entry (reg 0)))
      (lf_const 10L)
  in
  match Checks.materialize f form with
  | Some (kinds, Rtl.Reg result) ->
    (* execute the kinds and verify r0 + 4*r1 + 10 *)
    let g = Func.create ~name:"t" ~params:[ reg 0; reg 1 ] in
    g.next_reg <- f.next_reg;
    List.iter (Func.append g) kinds;
    Func.append g (Rtl.Ret (Some (Rtl.Reg result)));
    let memory = Memory.create ~size:256 in
    let r =
      Interp.run ~machine:Test32.machine ~memory [ g ] ~entry:"t"
        ~args:[ 100L; 7L ] ()
    in
    Alcotest.(check int64) "materialized value" 138L r.value
  | Some (_, Rtl.Imm _) -> Alcotest.fail "expected a register"
  | None -> Alcotest.fail "materialization failed"

let test_materialize_opaque_fails () =
  let f = Func.create ~name:"t" ~params:[] in
  let form = { Linform.const = 0L; terms = [ (Linform.Opaque 0, 1L) ] } in
  Alcotest.(check bool) "opaque not materializable" true
    (Checks.materialize f form = None)

let test_alignment_check_emission () =
  let f = Func.create ~name:"t" ~params:[ reg 0 ] in
  match
    Checks.alignment_check f ~safe_label:"Lsafe" ~addr:(lf_entry (reg 0))
      ~wide:Width.W64
  with
  | Some kinds ->
    (* run it with an aligned and a misaligned base *)
    let exec_with base =
      let g = Func.create ~name:"t" ~params:[ reg 0 ] in
      g.next_reg <- f.next_reg;
      List.iter (Func.append g) kinds;
      Func.append g (Rtl.Ret (Some (Rtl.Imm 1L)));
      Func.append g (Rtl.Label "Lsafe");
      Func.append g (Rtl.Ret (Some (Rtl.Imm 0L)));
      let memory = Memory.create ~size:256 in
      (Interp.run ~machine:Test32.machine ~memory [ g ] ~entry:"t"
         ~args:[ base ] ())
        .value
    in
    Alcotest.(check int64) "aligned falls through" 1L (exec_with 64L);
    Alcotest.(check int64) "misaligned dispatches" 0L (exec_with 66L)
  | None -> Alcotest.fail "no alignment check emitted"

let run_alias_check ~a_base ~b_base ~n f kinds =
  let g = Func.create ~name:"t" ~params:[ reg 0; reg 1; reg 2; reg 3 ] in
  g.next_reg <- f.Func.next_reg;
  List.iter (Func.append g) kinds;
  Func.append g (Rtl.Ret (Some (Rtl.Imm 1L)));
  Func.append g (Rtl.Label "Lsafe");
  Func.append g (Rtl.Ret (Some (Rtl.Imm 0L)));
  let memory = Memory.create ~size:65536 in
  (Interp.run ~machine:Test32.machine ~memory [ g ] ~entry:"t"
     ~args:[ a_base; b_base; n; 0L ] ())
    .value

let test_alias_check_emission () =
  (* partitions a (loads r0+iv*2) and b (stores r1+iv*2), iv = r3 counting
     to r2 by 1 *)
  let f = Func.create ~name:"t" ~params:[ reg 0; reg 1; reg 2; reg 3 ] in
  let trip =
    { Mac_opt.Induction.iv = { reg = reg 3; step = 1L };
      offset = 1L (* post-increment shape: the branch sees iv + 1 *);
      bound = Rtl.Reg (reg 2); cmp = Rtl.Lt }
  in
  let extent base =
    { Checks.base = lf_entry base; advance = 2L; lo_off = 0L; hi_off = 2L }
  in
  match
    Checks.alias_check f ~safe_label:"Lsafe" ~trip ~a:(extent (reg 0))
      ~b:(extent (reg 1))
  with
  | Some kinds ->
    (* disjoint: [1000, 1200) vs [2000, 2200) for n=100 *)
    Alcotest.(check int64) "disjoint passes" 1L
      (run_alias_check ~a_base:1000L ~b_base:2000L ~n:100L f kinds);
    (* overlapping: b starts inside a's extent *)
    Alcotest.(check int64) "overlap dispatches" 0L
      (run_alias_check ~a_base:1000L ~b_base:1100L ~n:100L f kinds);
    (* adjacent buffers must NOT be flagged: b starts exactly at a's end *)
    Alcotest.(check int64) "adjacent passes" 1L
      (run_alias_check ~a_base:1000L ~b_base:1200L ~n:100L f kinds)
  | None -> Alcotest.fail "no alias check emitted"

let test_extent_of () =
  let a = Partition.analyze (body_two_arrays ()) in
  let p0 = List.hd a.partitions in
  match Checks.extent_of a p0 with
  | Some e ->
    Alcotest.(check int64) "advance" 4L e.advance;
    Alcotest.(check int64) "lo" 0L e.lo_off;
    Alcotest.(check int64) "hi" 4L e.hi_off
  | None -> Alcotest.fail "extent expected"

let test_extent_of_empty_refs () =
  (* a partition stripped of references has no footprint — None, not an
     inverted (max_int, min_int) window *)
  let a = Partition.analyze (body_two_arrays ()) in
  let p0 = List.hd a.partitions in
  Alcotest.(check bool) "no refs, no extent" true
    (Checks.extent_of a { p0 with Partition.refs = [] } = None)

(* --- transform --- *)

let test_transform_loads_semantics () =
  let body = body_two_arrays () in
  let f = Func.create ~name:"t" ~params:[ reg 0; reg 1 ] in
  f.next_reg <- 20;
  let analysis, group = group_of body ~loads:true in
  ignore analysis;
  let body', stats = Transform.apply_groups f ~body ~groups:[ group ] in
  Alcotest.(check int) "loads removed" 2 stats.loads_removed;
  Alcotest.(check int) "one wide load" 1 stats.wide_loads;
  (* run both versions over the same memory *)
  let run body =
    let g = Func.create ~name:"t" ~params:[ reg 0; reg 1 ] in
    g.next_reg <- 60;
    List.iter (fun (i : Rtl.inst) -> Func.append g i.kind) body;
    Func.append g (Rtl.Ret None);
    let memory = Memory.create ~size:4096 in
    Memory.store memory ~addr:256L ~width:Width.W16 0x1111L;
    Memory.store memory ~addr:258L ~width:Width.W16 0x2222L;
    ignore
      (Interp.run ~machine:Test32.machine ~memory [ g ] ~entry:"t"
         ~args:[ 256L; 512L ] ());
    Memory.load memory ~addr:512L ~width:Width.W32 ~sign:Rtl.Unsigned
  in
  Alcotest.(check int64) "same effect" (run body) (run body')

let test_transform_stores_semantics () =
  let body = body_two_arrays () in
  let f = Func.create ~name:"t" ~params:[ reg 0; reg 1 ] in
  f.next_reg <- 20;
  let _, group = group_of body ~loads:false in
  let body', stats = Transform.apply_groups f ~body ~groups:[ group ] in
  Alcotest.(check int) "stores removed" 2 stats.stores_removed;
  Alcotest.(check int) "one wide store" 1 stats.wide_stores;
  let count_stores body =
    List.length
      (List.filter
         (fun (i : Rtl.inst) ->
           match i.kind with Rtl.Store _ -> true | _ -> false)
         body)
  in
  Alcotest.(check int) "narrow stores replaced" 1 (count_stores body')

(* --- driver end to end: Fig. 1 dot product --- *)

let compile_dotproduct machine level =
  let cfg = Mac_vpo.Pipeline.config ~level machine in
  Mac_vpo.Pipeline.compile_source cfg
    Mac_workloads.Workloads.dotproduct_src

let run_dotproduct (compiled : Mac_vpo.Pipeline.compiled) machine n =
  let memory = Memory.create ~size:65536 in
  let alloc = Memory.allocator memory in
  let a = Memory.alloc alloc ~align:8 (2 * n) in
  let b = Memory.alloc alloc ~align:8 (2 * n) in
  for i = 0 to n - 1 do
    Memory.store memory ~addr:(Int64.add a (Int64.of_int (2 * i)))
      ~width:Width.W16 (Int64.of_int i);
    Memory.store memory ~addr:(Int64.add b (Int64.of_int (2 * i)))
      ~width:Width.W16 3L
  done;
  Interp.run ~machine ~memory compiled.funcs ~entry:"dotproduct"
    ~args:[ a; b; Int64.of_int n ] ()

let test_coalesce_dotproduct_alpha () =
  let compiled = compile_dotproduct Machine.alpha Mac_vpo.Pipeline.O4 in
  (match compiled.reports with
  | [ (_, [ r ]) ] ->
    Alcotest.(check bool) "coalesced" true (r.status = Coalesce.Coalesced);
    Alcotest.(check int) "factor 4" 4 r.factor;
    Alcotest.(check int) "two load groups (a and b)" 2 r.load_groups
  | _ -> Alcotest.fail "expected one loop report");
  let n = 64 in
  let r = run_dotproduct compiled Machine.alpha n in
  (* sum i*3 for i in 0..63 = 3 * 2016 *)
  Alcotest.(check int64) "correct result" 6048L r.value;
  (* the paper's headline: 2n loads become 2n/4 *)
  let baseline = compile_dotproduct Machine.alpha Mac_vpo.Pipeline.O2 in
  let rb = run_dotproduct baseline Machine.alpha n in
  Alcotest.(check int) "75 percent of loads eliminated"
    (rb.metrics.loads / 4) r.metrics.loads

let test_coalesce_reports_checks () =
  let compiled = compile_dotproduct Machine.alpha Mac_vpo.Pipeline.O4 in
  match compiled.reports with
  | [ (_, [ r ]) ] ->
    (* the paper: "typically, 10 to 15 instructions must be added in the
       loop preheader" *)
    Alcotest.(check bool)
      (Printf.sprintf "preheader checks in the paper's range (got %d)"
         r.check_insts)
      true
      (r.check_insts >= 8 && r.check_insts <= 40)
  | _ -> Alcotest.fail "expected one loop report"

let test_coalesce_static_only_rejects () =
  let coalesce = { Coalesce.default with runtime_checks = false } in
  let cfg = Mac_vpo.Pipeline.config ~level:Mac_vpo.Pipeline.O4 ~coalesce
      Machine.alpha in
  let compiled =
    Mac_vpo.Pipeline.compile_source cfg Mac_workloads.Workloads.dotproduct_src
  in
  match compiled.reports with
  | [ (_, [ r ]) ] ->
    Alcotest.(check bool) "nothing coalesced statically" true
      (r.status <> Coalesce.Coalesced)
  | _ -> Alcotest.fail "expected one loop report"

let test_coalesce_profitability_rejects_68030 () =
  let compiled = compile_dotproduct Machine.mc68030 Mac_vpo.Pipeline.O4 in
  match compiled.reports with
  | [ (_, [ r ]) ] ->
    Alcotest.(check bool) "68030 rejected by profitability" true
      (match r.status with
      | Coalesce.Rejected _ | Coalesce.Unrolled_only -> true
      | _ -> false)
  | _ -> Alcotest.fail "expected one loop report"

let test_coalesce_unroll_only_mode () =
  let coalesce = { Coalesce.default with unroll_only = true } in
  let cfg =
    Mac_vpo.Pipeline.config ~level:Mac_vpo.Pipeline.O2 ~coalesce Machine.alpha
  in
  let compiled =
    Mac_vpo.Pipeline.compile_source cfg Mac_workloads.Workloads.dotproduct_src
  in
  match compiled.reports with
  | [ (_, [ r ]) ] ->
    Alcotest.(check bool) "unrolled only" true
      (r.status = Coalesce.Unrolled_only)
  | _ -> Alcotest.fail "expected one loop report"

(* --- property: materialize computes the form's value --- *)

let gen_linform =
  let open QCheck.Gen in
  let* const = map Int64.of_int (int_range (-100) 100) in
  let* coeffs = list_size (int_range 0 3) (int_range (-8) 8) in
  return
    (List.fold_left
       (fun (acc, i) c ->
         ( Linform.add acc
             (Linform.mul_const (lf_entry (reg i)) (Int64.of_int c)),
           i + 1 ))
       (lf_const const, 0)
       coeffs
    |> fst)

let prop_materialize_correct =
  QCheck.Test.make ~name:"materialize computes the form's value" ~count:200
    (QCheck.pair
       (QCheck.make gen_linform)
       (QCheck.triple QCheck.small_int QCheck.small_int QCheck.small_int))
    (fun (form, (v0, v1, v2)) ->
      let f = Func.create ~name:"t" ~params:[ reg 0; reg 1; reg 2 ] in
      match Linform.materialize f form with
      | None -> false (* entry-only forms always materialize *)
      | Some (kinds, op) ->
        List.iter (Func.append f) kinds;
        Func.append f (Rtl.Ret (Some op));
        let memory = Memory.create ~size:256 in
        let r =
          Interp.run ~machine:Test32.machine ~memory [ f ] ~entry:"t"
            ~args:[ Int64.of_int v0; Int64.of_int v1; Int64.of_int v2 ]
            ()
        in
        let expected =
          List.fold_left
            (fun acc (sym, c) ->
              match sym with
              | Linform.Entry r ->
                let v = [| v0; v1; v2 |].(Reg.id r) in
                Int64.add acc (Int64.mul c (Int64.of_int v))
              | Linform.Opaque _ -> acc)
            form.Linform.const form.Linform.terms
        in
        Int64.equal r.value expected)

(* --- more checks edge cases --- *)

let test_extent_negative_advance () =
  (* mirror-style descending partition *)
  let body =
    [
      mk (Rtl.Load { dst = reg 4; src = mem ~disp:0L (reg 0);
                     sign = Rtl.Signed });
      mk (Rtl.Binop (Rtl.Sub, reg 0, Rtl.Reg (reg 0), Rtl.Imm 2L));
    ]
  in
  let a = Partition.analyze body in
  match Checks.extent_of a (List.hd a.partitions) with
  | Some e -> Alcotest.(check int64) "negative advance" (-2L) e.advance
  | None -> Alcotest.fail "extent expected"

let test_alias_check_down_counting () =
  (* iv counts down; partitions move downward *)
  let f = Func.create ~name:"t" ~params:[ reg 0; reg 1; reg 2; reg 3 ] in
  let trip =
    { Mac_opt.Induction.iv = { reg = reg 3; step = -1L };
      offset = -1L; bound = Rtl.Imm 0L; cmp = Rtl.Gt }
  in
  let extent base =
    { Checks.base = lf_entry base; advance = -2L; lo_off = 0L; hi_off = 2L }
  in
  match
    Checks.alias_check f ~safe_label:"Lsafe" ~trip ~a:(extent (reg 0))
      ~b:(extent (reg 1))
  with
  | Some kinds ->
    (* iv starts at n (r3): extents cover [base - 2*(n-1), base+2) *)
    let run ~a_base ~b_base ~n =
      let g = Func.create ~name:"t" ~params:[ reg 0; reg 1; reg 2; reg 3 ] in
      g.next_reg <- f.Func.next_reg;
      List.iter (Func.append g) kinds;
      Func.append g (Rtl.Ret (Some (Rtl.Imm 1L)));
      Func.append g (Rtl.Label "Lsafe");
      Func.append g (Rtl.Ret (Some (Rtl.Imm 0L)));
      let memory = Memory.create ~size:65536 in
      (Interp.run ~machine:Test32.machine ~memory [ g ] ~entry:"t"
         ~args:[ a_base; b_base; 0L; n ] ())
        .value
    in
    Alcotest.(check int64) "disjoint passes" 1L
      (run ~a_base:5000L ~b_base:9000L ~n:100L);
    Alcotest.(check int64) "overlap dispatches" 0L
      (run ~a_base:5000L ~b_base:4900L ~n:100L)
  | None -> Alcotest.fail "no alias check emitted"

let test_opaque_partition_not_coalesced () =
  (* base addresses derived from loaded values cannot be checked at run
     time, so the driver must skip them (advance unknown) *)
  let src =
    "void gather(long idx[], short data[], short out[], int n) { int i;      for (i = 0; i < n; i++) out[i] = data[idx[i]]; }"
  in
  let cfg = Mac_vpo.Pipeline.config ~level:Mac_vpo.Pipeline.O4 Machine.alpha in
  let compiled = Mac_vpo.Pipeline.compile_source cfg src in
  (* correctness: run it *)
  let memory = Memory.create ~size:65536 in
  let alloc = Memory.allocator memory in
  let n = 16 in
  let idx = Memory.alloc alloc ~align:8 (8 * n) in
  let data = Memory.alloc alloc ~align:8 (2 * n) in
  let out = Memory.alloc alloc ~align:8 (2 * n) in
  for i = 0 to n - 1 do
    Memory.store memory ~addr:(Int64.add idx (Int64.of_int (8 * i)))
      ~width:Width.W64
      (Int64.of_int (n - 1 - i));
    Memory.store memory ~addr:(Int64.add data (Int64.of_int (2 * i)))
      ~width:Width.W16 (Int64.of_int (i * 10))
  done;
  ignore
    (Interp.run ~machine:Machine.alpha ~memory compiled.funcs ~entry:"gather"
       ~args:[ idx; data; out; Int64.of_int n ] ());
  for i = 0 to n - 1 do
    Alcotest.(check int64) "gathered"
      (Int64.of_int ((n - 1 - i) * 10))
      (Memory.load memory ~addr:(Int64.add out (Int64.of_int (2 * i)))
         ~width:Width.W16 ~sign:Rtl.Signed)
  done

let test_mixed_width_window () =
  (* a byte load and a short load inside one 4-byte window coalesce
     together *)
  let body =
    [
      mk (Rtl.Load { dst = reg 4; src = mem ~width:Width.W8 ~disp:0L (reg 0);
                     sign = Rtl.Unsigned });
      mk (Rtl.Load { dst = reg 5; src = mem ~width:Width.W16 ~disp:2L (reg 0);
                     sign = Rtl.Signed });
      mk (Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 4L));
    ]
  in
  let a = Partition.analyze body in
  match Partition.select_load_groups (List.hd a.partitions) ~wide:Width.W32 with
  | [ g ] -> Alcotest.(check int) "both widths grouped" 2
               (List.length g.members)
  | _ -> Alcotest.fail "expected one mixed-width group"

(* --- remainder-loop mode (Fig. 5's "iterate n mod unrollfactor") --- *)

let test_remainder_mode_keeps_coalescing () =
  let coalesce = { Coalesce.default with remainder_loop = true } in
  let cfg =
    Mac_vpo.Pipeline.config ~level:Mac_vpo.Pipeline.O4 ~coalesce
      Machine.alpha
  in
  let compiled =
    Mac_vpo.Pipeline.compile_source cfg Mac_workloads.Workloads.dotproduct_src
  in
  (* trip count 67 = 16*4 + 3: not divisible by the factor *)
  let n = 67 in
  let run_compiled (c : Mac_vpo.Pipeline.compiled) =
    let memory = Memory.create ~size:65536 in
    let alloc = Memory.allocator memory in
    let a = Memory.alloc alloc ~align:8 (2 * n) in
    let b = Memory.alloc alloc ~align:8 (2 * n) in
    for i = 0 to n - 1 do
      Memory.store memory ~addr:(Int64.add a (Int64.of_int (2 * i)))
        ~width:Width.W16 (Int64.of_int i);
      Memory.store memory ~addr:(Int64.add b (Int64.of_int (2 * i)))
        ~width:Width.W16 2L
    done;
    Interp.run ~machine:Machine.alpha ~memory c.funcs ~entry:"dotproduct"
      ~args:[ a; b; Int64.of_int n ] ()
  in
  let r = run_compiled compiled in
  (* sum 2*i for i in 0..66 = 67*66 *)
  Alcotest.(check int64) "correct result" (Int64.of_int (67 * 66)) r.value;
  (* the coalesced main loop ran 16 times, the prologue absorbed 3 *)
  let count prefix =
    List.fold_left
      (fun acc (l, c) ->
        if String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix
        then acc + c
        else acc)
      0 r.metrics.label_counts
  in
  Alcotest.(check int) "main loop iterations" 16 (count "Lmain");
  Alcotest.(check int) "epilogue (safe-copy) iterations" 3 (count "Lsafe");
  (* whereas the default bail-out mode runs the safe loop throughout *)
  let bail =
    let cfg =
      Mac_vpo.Pipeline.config ~level:Mac_vpo.Pipeline.O4 Machine.alpha
    in
    Mac_vpo.Pipeline.compile_source cfg
      Mac_workloads.Workloads.dotproduct_src
  in
  let rb = run_compiled bail in
  Alcotest.(check int64) "bail mode also correct"
    (Int64.of_int (67 * 66)) rb.value;
  Alcotest.(check bool) "remainder mode is faster on non-divisible trips"
    true
    (r.metrics.cycles < rb.metrics.cycles)

let test_remainder_mode_divisible_equivalent () =
  (* on divisible trip counts both modes coalesce and agree *)
  let run remainder_loop n =
    let coalesce = { Coalesce.default with remainder_loop } in
    let cfg =
      Mac_vpo.Pipeline.config ~level:Mac_vpo.Pipeline.O4 ~coalesce
        Machine.alpha
    in
    let compiled =
      Mac_vpo.Pipeline.compile_source cfg
        Mac_workloads.Workloads.dotproduct_src
    in
    (run_dotproduct compiled Machine.alpha n).value
  in
  List.iter
    (fun n ->
      Alcotest.(check int64)
        (Printf.sprintf "n = %d" n)
        (run false n) (run true n))
    [ 1; 3; 4; 7; 8; 64; 65 ]

let () =
  Alcotest.run "core"
    [
      ( "linform",
        [
          Alcotest.test_case "algebra" `Quick test_linform_algebra;
          Alcotest.test_case "symbolic execution" `Quick test_linform_step;
          Alcotest.test_case "opaque values" `Quick test_linform_opaque;
        ] );
      ( "partition",
        [
          Alcotest.test_case "analyze" `Quick test_partition_analyze;
          Alcotest.test_case "unknown advance" `Quick
            test_partition_unknown_advance;
          Alcotest.test_case "load groups" `Quick test_select_load_groups;
          Alcotest.test_case "store full coverage" `Quick
            test_select_store_groups_full_coverage;
          Alcotest.test_case "aligned-down candidates" `Quick
            test_select_groups_aligned_down_candidates;
        ] );
      ( "hazard",
        [
          Alcotest.test_case "clean loads" `Quick test_hazard_clean_loads;
          Alcotest.test_case "overlapping store blocks" `Quick
            test_hazard_same_partition_store_blocks_load;
          Alcotest.test_case "disjoint in-place ok" `Quick
            test_hazard_disjoint_same_partition_store_ok;
          Alcotest.test_case "call barrier" `Quick test_hazard_call_blocks;
          Alcotest.test_case "store reordering" `Quick
            test_hazard_store_group_reordering_blocked;
        ] );
      ( "checks",
        [
          Alcotest.test_case "materialize" `Quick test_materialize;
          Alcotest.test_case "opaque fails" `Quick
            test_materialize_opaque_fails;
          Alcotest.test_case "alignment dispatch" `Quick
            test_alignment_check_emission;
          Alcotest.test_case "alias dispatch" `Quick test_alias_check_emission;
          Alcotest.test_case "extent" `Quick test_extent_of;
          Alcotest.test_case "empty extent" `Quick test_extent_of_empty_refs;
        ] );
      ( "profitability",
        [
          Alcotest.test_case "original body priced once" `Quick
            test_profitability_prices_before_once;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "negative advance extent" `Quick
            test_extent_negative_advance;
          Alcotest.test_case "down-counting alias check" `Quick
            test_alias_check_down_counting;
          Alcotest.test_case "opaque partition" `Quick
            test_opaque_partition_not_coalesced;
          Alcotest.test_case "mixed widths" `Quick test_mixed_width_window;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_materialize_correct ] );
      ( "transform",
        [
          Alcotest.test_case "loads" `Quick test_transform_loads_semantics;
          Alcotest.test_case "stores" `Quick test_transform_stores_semantics;
        ] );
      ( "driver",
        [
          Alcotest.test_case "dot product on alpha" `Quick
            test_coalesce_dotproduct_alpha;
          Alcotest.test_case "preheader check count" `Quick
            test_coalesce_reports_checks;
          Alcotest.test_case "static-only ablation" `Quick
            test_coalesce_static_only_rejects;
          Alcotest.test_case "68030 profitability" `Quick
            test_coalesce_profitability_rejects_68030;
          Alcotest.test_case "unroll-only mode" `Quick
            test_coalesce_unroll_only_mode;
          Alcotest.test_case "remainder mode" `Quick
            test_remainder_mode_keeps_coalescing;
          Alcotest.test_case "remainder vs bail equivalence" `Quick
            test_remainder_mode_divisible_equivalent;
        ] );
    ]
