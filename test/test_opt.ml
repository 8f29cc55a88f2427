(* Tests for the classic optimization passes, the unroller, the legalizer
   and the scheduler. Transformations are checked both structurally and by
   executing the code before and after on the simulator. *)

open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Dom = Mac_cfg.Dom
module Loop = Mac_cfg.Loop
module Machine = Mac_machine.Machine
module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp

(* The classic fixed point, which must converge inside its budget. *)
let classic_opts f =
  match Mac_vpo.Pipeline.classic_opts f with
  | [] -> ()
  | d :: _ -> Alcotest.fail (Fmt.str "%a" Mac_verify.Diagnostic.pp d)

let reg = Reg.make

(* One instruction as [Simplify.run] rewrites it, alone in a function. *)
let simplify k =
  let f = Func.create ~name:"t" ~params:[ Reg.make 1 ] in
  Func.append f k;
  ignore (Mac_opt.Simplify.run f);
  match f.body with
  | [ i ] -> i.kind
  | _ -> Alcotest.fail "simplify kept one instruction"

(* True when [f]'s body still holds label [l]. *)
let has_label (f : Func.t) l =
  List.exists (fun (i : Rtl.inst) -> i.kind = Rtl.Label l) f.body

(* How many times a run entered label [l]. *)
let label_count (m : Interp.metrics) l =
  Option.value (List.assoc_opt l m.label_counts) ~default:0

let func_of ?(params = [ reg 0; reg 1 ]) kinds =
  let f = Func.create ~name:"t" ~params in
  List.iter (Func.append f) kinds;
  f

let kinds_of (f : Func.t) = List.map (fun (i : Rtl.inst) -> i.kind) f.body

let exec ?(machine = Test32.machine) ?memory ?(args = []) f =
  let memory =
    match memory with Some m -> m | None -> Memory.create ~size:8192
  in
  (Interp.run ~machine ~memory [ f ] ~entry:"t" ~args ()).value

(* --- simplify --- *)

let test_simplify_folds () =
  let cases =
    [
      ( Rtl.Binop (Rtl.Add, reg 2, Rtl.Imm 3L, Rtl.Imm 4L),
        Rtl.Move (reg 2, Rtl.Imm 7L) );
      ( Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 1), Rtl.Imm 0L),
        Rtl.Move (reg 2, Rtl.Reg (reg 1)) );
      ( Rtl.Binop (Rtl.Mul, reg 2, Rtl.Reg (reg 1), Rtl.Imm 8L),
        Rtl.Binop (Rtl.Shl, reg 2, Rtl.Reg (reg 1), Rtl.Imm 3L) );
      ( Rtl.Binop (Rtl.Mul, reg 2, Rtl.Reg (reg 1), Rtl.Imm 0L),
        Rtl.Move (reg 2, Rtl.Imm 0L) );
      ( Rtl.Binop (Rtl.Sub, reg 2, Rtl.Reg (reg 1), Rtl.Reg (reg 1)),
        Rtl.Move (reg 2, Rtl.Imm 0L) );
      ( Rtl.Binop (Rtl.And, reg 2, Rtl.Reg (reg 1), Rtl.Imm 0L),
        Rtl.Move (reg 2, Rtl.Imm 0L) );
      (Rtl.Move (reg 2, Rtl.Reg (reg 2)), Rtl.Nop);
      ( Rtl.Branch { cmp = Rtl.Lt; l = Rtl.Imm 1L; r = Rtl.Imm 2L;
                     target = "L" },
        Rtl.Jump "L" );
      ( Rtl.Branch { cmp = Rtl.Gt; l = Rtl.Imm 1L; r = Rtl.Imm 2L;
                     target = "L" },
        Rtl.Nop );
      ( Rtl.Unop (Rtl.Sext Width.W8, reg 2, Rtl.Imm 0xFFL),
        Rtl.Move (reg 2, Rtl.Imm (-1L)) );
    ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Rtl.to_string input) (Rtl.to_string expected)
        (Rtl.to_string (simplify input)))
    cases

let test_simplify_preserves_div_by_zero () =
  let k = Rtl.Binop (Rtl.Div, reg 2, Rtl.Imm 1L, Rtl.Imm 0L) in
  Alcotest.(check bool) "division by zero not folded" true
    (simplify k = k)

let test_simplify_run_semantics () =
  let f =
    func_of ~params:[]
      [
        Rtl.Move (reg 0, Rtl.Imm 6L);
        Rtl.Binop (Rtl.Mul, reg 1, Rtl.Reg (reg 0), Rtl.Imm 4L);
        Rtl.Binop (Rtl.Add, reg 1, Rtl.Reg (reg 1), Rtl.Imm 0L);
        Rtl.Ret (Some (Rtl.Reg (reg 1)));
      ]
  in
  let before = exec f in
  ignore (Mac_opt.Simplify.run f);
  Alcotest.(check int64) "value preserved" before (exec f)

(* --- copy propagation --- *)

let test_copyprop () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Reg (reg 0));
        Rtl.Move (reg 3, Rtl.Imm 5L);
        Rtl.Binop (Rtl.Add, reg 4, Rtl.Reg (reg 2), Rtl.Reg (reg 3));
        Rtl.Ret (Some (Rtl.Reg (reg 4)));
      ]
  in
  Alcotest.(check bool) "changed" true (Mac_opt.Copyprop.run f);
  match kinds_of f with
  | [ _; _; Rtl.Binop (Rtl.Add, _, Rtl.Reg a, Rtl.Imm 5L); _ ] ->
    Alcotest.(check int) "use rewritten to source" 0 (Reg.id a)
  | _ -> Alcotest.fail "unexpected shape after copyprop"

let test_copyprop_chain () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Reg (reg 0));
        Rtl.Move (reg 3, Rtl.Reg (reg 2));
        Rtl.Ret (Some (Rtl.Reg (reg 3)));
      ]
  in
  ignore (Mac_opt.Copyprop.run f);
  match List.rev (kinds_of f) with
  | Rtl.Ret (Some (Rtl.Reg r)) :: _ ->
    Alcotest.(check int) "chain followed to the root" 0 (Reg.id r)
  | _ -> Alcotest.fail "no ret"

let test_copyprop_not_across_redef () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Reg (reg 0));
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  ignore (Mac_opt.Copyprop.run f);
  match List.rev (kinds_of f) with
  | Rtl.Ret (Some (Rtl.Reg r)) :: _ ->
    Alcotest.(check int) "stale copy not propagated" 2 (Reg.id r)
  | _ -> Alcotest.fail "no ret"

(* --- dce --- *)

let test_dce_removes_dead () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 1L);
        (* dead *)
        Rtl.Move (reg 3, Rtl.Imm 2L);
        Rtl.Ret (Some (Rtl.Reg (reg 3)));
      ]
  in
  Alcotest.(check bool) "changed" true (Mac_opt.Dce.run f);
  Alcotest.(check int) "dead move removed" 2 (List.length f.body)

let test_dce_keeps_stores_and_calls () =
  let f =
    func_of
      [
        Rtl.Store
          { src = Rtl.Imm 1L;
            dst = { base = reg 0; disp = 0L; width = Width.W32;
                    aligned = true } };
        Rtl.Call { dst = Some (reg 5); func = "t"; args = [] };
        Rtl.Ret None;
      ]
  in
  ignore (Mac_opt.Dce.run f);
  Alcotest.(check int) "side effects kept" 3 (List.length f.body)

let test_dce_transitive () =
  (* r2 feeds only dead r3: both must go *)
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 1L);
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Ret (Some (Rtl.Reg (reg 0)));
      ]
  in
  ignore (Mac_opt.Dce.run f);
  Alcotest.(check int) "both dead defs removed" 1 (List.length f.body)

let test_dce_removes_unreachable_blocks () =
  let f =
    func_of
      [
        Rtl.Jump "Lend";
        Rtl.Label "Ldead";
        Rtl.Store
          { src = Rtl.Imm 1L;
            dst = { base = reg 0; disp = 0L; width = Width.W8;
                    aligned = true } };
        Rtl.Jump "Lend";
        Rtl.Label "Lend";
        Rtl.Ret None;
      ]
  in
  ignore (Mac_opt.Dce.run f);
  Alcotest.(check bool) "dead label gone" false (has_label f "Ldead")

(* --- cse --- *)

let test_cse_reuses_expression () =
  let f =
    func_of
      [
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 0), Rtl.Reg (reg 1));
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 0), Rtl.Reg (reg 1));
        Rtl.Binop (Rtl.Xor, reg 4, Rtl.Reg (reg 2), Rtl.Reg (reg 3));
        Rtl.Ret (Some (Rtl.Reg (reg 4)));
      ]
  in
  Alcotest.(check bool) "changed" true (Mac_opt.Cse.run f);
  (match kinds_of f with
  | [ _; Rtl.Move (d, Rtl.Reg s); _; _ ] ->
    Alcotest.(check int) "second add becomes a move" 3 (Reg.id d);
    Alcotest.(check int) "from the first result" 2 (Reg.id s)
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check int64) "still computes xor of equal values = 0" 0L
    (exec ~args:[ 3L; 4L ] f)

let test_cse_redundant_load () =
  let mem = { Rtl.base = reg 0; disp = 4L; width = Width.W32;
              aligned = true } in
  let f =
    func_of
      [
        Rtl.Load { dst = reg 2; src = mem; sign = Rtl.Signed };
        Rtl.Load { dst = reg 3; src = mem; sign = Rtl.Signed };
        Rtl.Binop (Rtl.Add, reg 4, Rtl.Reg (reg 2), Rtl.Reg (reg 3));
        Rtl.Ret (Some (Rtl.Reg (reg 4)));
      ]
  in
  ignore (Mac_opt.Cse.run f);
  let loads =
    List.length (List.filter Rtl.is_load (kinds_of f))
  in
  Alcotest.(check int) "one load left" 1 loads

let test_cse_load_killed_by_store () =
  let mem = { Rtl.base = reg 0; disp = 4L; width = Width.W32;
              aligned = true } in
  let f =
    func_of
      [
        Rtl.Load { dst = reg 2; src = mem; sign = Rtl.Signed };
        Rtl.Store { src = Rtl.Imm 9L; dst = mem };
        Rtl.Load { dst = reg 3; src = mem; sign = Rtl.Signed };
        Rtl.Ret (Some (Rtl.Reg (reg 3)));
      ]
  in
  ignore (Mac_opt.Cse.run f);
  let loads = List.length (List.filter Rtl.is_load (kinds_of f)) in
  Alcotest.(check int) "store kills availability" 2 loads

let test_cse_self_update_not_available () =
  (* d = d + 1 must not make "d + 1" available *)
  let f =
    func_of
      [
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  ignore (Mac_opt.Cse.run f);
  match kinds_of f with
  | [ _; Rtl.Binop (Rtl.Add, _, _, _); _ ] -> ()
  | _ -> Alcotest.fail "second add wrongly CSEd"

(* --- induction / trip --- *)

let counted_loop ?(step = 1L) ?(cmp = Rtl.Lt) () =
  func_of
    [
      Rtl.Move (reg 2, Rtl.Imm 0L);
      Rtl.Label "Lhead";
      Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 3), Rtl.Reg (reg 2));
      Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm step);
      Rtl.Branch { cmp; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 1);
                   target = "Lhead" };
      Rtl.Ret (Some (Rtl.Reg (reg 3)));
    ]

let simple_of_func f =
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  match Loop.natural_loops cfg dom with
  | [ l ] -> Option.get (Loop.simple_of cfg l)
  | _ -> Alcotest.fail "expected one loop"

let test_induction_basic () =
  let s = simple_of_func (counted_loop ()) in
  (match Mac_opt.Induction.basic_ivs s with
  | [ iv ] ->
    Alcotest.(check int) "iv reg" 2 (Reg.id iv.reg);
    Alcotest.(check int64) "step" 1L iv.step
  | _ -> Alcotest.fail "expected exactly one IV")

let test_trip_recognition () =
  (match Mac_opt.Induction.trip_of (simple_of_func (counted_loop ())) with
  | Some t ->
    Alcotest.(check int64) "step" 1L t.iv.step;
    Alcotest.(check bool) "bound" true (t.bound = Rtl.Reg (reg 1))
  | None -> Alcotest.fail "trip not recognised");
  (* Ne back branches are accepted *)
  Alcotest.(check bool) "ne accepted" true
    (Mac_opt.Induction.trip_of (simple_of_func (counted_loop ~cmp:Rtl.Ne ()))
    <> None);
  (* up-counting loop with > is rejected *)
  Alcotest.(check bool) "wrong direction rejected" true
    (Mac_opt.Induction.trip_of (simple_of_func (counted_loop ~cmp:Rtl.Gt ()))
    = None)

let test_induction_two_increments_fold () =
  (* the symbolic analysis sees through two separate increments: the
     combined step is 2 *)
  let f =
    func_of
      [
        Rtl.Label "Lhead";
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Branch { cmp = Rtl.Lt; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 1);
                     target = "Lhead" };
        Rtl.Ret None;
      ]
  in
  match Mac_opt.Induction.basic_ivs (simple_of_func f) with
  | [ iv ] ->
    Alcotest.(check int) "reg" 2 (Reg.id iv.reg);
    Alcotest.(check int64) "combined step" 2L iv.step
  | _ -> Alcotest.fail "expected one induction variable"

(* An increment by a register amount must not be recognised. *)
let test_induction_variable_step_not_iv () =
  let f =
    func_of
      [
        Rtl.Label "Lhead";
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Reg (reg 0));
        Rtl.Branch { cmp = Rtl.Lt; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 1);
                     target = "Lhead" };
        Rtl.Ret None;
      ]
  in
  Alcotest.(check (list int)) "no IV with register step" []
    (List.map
       (fun (iv : Mac_opt.Induction.iv) -> Reg.id iv.reg)
       (Mac_opt.Induction.basic_ivs (simple_of_func f)))

(* The post-CSE shape: t = i + 1; ...; i = t with the branch on t. *)
let test_induction_after_cse_shape () =
  let f =
    func_of
      [
        Rtl.Label "Lhead";
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Move (reg 2, Rtl.Reg (reg 3));
        Rtl.Branch { cmp = Rtl.Lt; l = Rtl.Reg (reg 3); r = Rtl.Reg (reg 1);
                     target = "Lhead" };
        Rtl.Ret None;
      ]
  in
  match Mac_opt.Induction.trip_of (simple_of_func f) with
  | Some t ->
    Alcotest.(check int64) "step" 1L t.iv.step;
    Alcotest.(check int64) "offset" 1L t.offset
  | None -> Alcotest.fail "post-CSE trip shape not recognised"

(* --- unroll --- *)

let sum_with_loop f n =
  (* the counted_loop computes sum 0..n-1 into r3 *)
  exec ~args:[ 0L; n ] f

let test_unroll_semantics_divisible () =
  let f = counted_loop () in
  let s = simple_of_func f in
  let u =
    Option.get (Mac_opt.Unroll.run f ~machine:Test32.machine ~factor:4 s)
  in
  Alcotest.(check int) "factor" 4 u.factor;
  (match Mac_verify.Rtlcheck.structural_checks ~pass:"unroll" f with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "invalid after unroll: %a" Mac_verify.Diagnostic.pp d);
  Alcotest.(check int64) "divisible trip count" 28L (sum_with_loop f 8L)

let test_unroll_semantics_indivisible_falls_back () =
  let f = counted_loop () in
  let s = simple_of_func f in
  let u =
    Option.get (Mac_opt.Unroll.run f ~machine:Test32.machine ~factor:4 s)
  in
  (* 7 iterations: not divisible by 4, must use the safe loop *)
  Alcotest.(check int64) "correct via safe loop" 21L (sum_with_loop f 7L);
  (* and the label counts prove the safe loop ran *)
  let memory = Memory.create ~size:4096 in
  let r =
    Interp.run ~machine:Test32.machine ~memory [ f ] ~entry:"t"
      ~args:[ 0L; 7L ] ()
  in
  Alcotest.(check int) "main loop never entered" 0
    (label_count r.metrics u.main_label);
  Alcotest.(check int) "safe loop ran the 7 iterations" 7
    (label_count r.metrics u.safe_label)

let test_unroll_main_loop_used_when_divisible () =
  let f = counted_loop () in
  let s = simple_of_func f in
  let u =
    Option.get (Mac_opt.Unroll.run f ~machine:Test32.machine ~factor:4 s)
  in
  let memory = Memory.create ~size:4096 in
  let r =
    Interp.run ~machine:Test32.machine ~memory [ f ] ~entry:"t"
      ~args:[ 0L; 12L ] ()
  in
  Alcotest.(check int) "main loop iterations" 3
    (label_count r.metrics u.main_label);
  Alcotest.(check int) "safe loop unused" 0
    (label_count r.metrics u.safe_label)

let test_unroll_refuses () =
  (* factor 1 *)
  let f = counted_loop () in
  let s = simple_of_func f in
  Alcotest.(check bool) "factor < 2" true
    (Mac_opt.Unroll.run f ~machine:Test32.machine ~factor:1 s = None);
  (* calls in the body *)
  let g =
    func_of
      [
        Rtl.Label "Lhead";
        Rtl.Call { dst = None; func = "t"; args = [] };
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Branch { cmp = Rtl.Lt; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 1);
                     target = "Lhead" };
        Rtl.Ret None;
      ]
  in
  Alcotest.(check bool) "call refused" true
    (Mac_opt.Unroll.run g ~machine:Test32.machine ~factor:4
       (simple_of_func g)
    = None)

let test_unroll_icache_guard () =
  (* i-cache of 64 bytes: an 8-instruction body fits rolled (40 bytes) but
     not unrolled by 4 *)
  let tiny = { Test32.machine with icache_bytes = 64 } in
  Alcotest.(check bool) "fits rolled, refused unrolled" false
    (Mac_opt.Unroll.fits_icache tiny ~body_insts:8 ~factor:4 ());
  Alcotest.(check bool) "does not fit rolled: paper heuristic allows" true
    (Mac_opt.Unroll.fits_icache tiny ~body_insts:100 ~factor:4 ());
  Alcotest.(check bool) "fits both" true
    (Mac_opt.Unroll.fits_icache Test32.machine ~body_insts:8 ~factor:4 ());
  (* preheader guard code counts against the fit: a body that fits
     unrolled with no overhead stops fitting once the coalescer's checks
     share the fetch span *)
  let snug = { Test32.machine with icache_bytes = (8 * 4 + 2) * 4 } in
  Alcotest.(check bool) "fits with no overhead" true
    (Mac_opt.Unroll.fits_icache snug ~body_insts:8 ~factor:4 ());
  Alcotest.(check bool) "guard overhead breaks the fit" false
    (Mac_opt.Unroll.fits_icache snug ~overhead_insts:10 ~body_insts:8
       ~factor:4 ());
  Alcotest.(check bool) "overhead irrelevant when rolled already misses"
    true
    (Mac_opt.Unroll.fits_icache tiny ~overhead_insts:10 ~body_insts:100
       ~factor:4 ())

(* --- legalize --- *)

let test_legalize_alpha_load () =
  let f =
    func_of ~params:[ reg 0 ]
      [
        Rtl.Load
          { dst = reg 2;
            src = { base = reg 0; disp = 2L; width = Width.W16;
                    aligned = true };
            sign = Rtl.Signed };
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  Alcotest.(check bool) "changed" true
    (Mac_opt.Legalize.run f Machine.alpha);
  (* shape: LDQ_U + addr + extract *)
  (match kinds_of f with
  | [ Rtl.Load { src = { width = Width.W64; aligned = false; _ }; _ };
      Rtl.Binop (Rtl.Add, _, _, _); Rtl.Extract { width = Width.W16; _ };
      Rtl.Ret _ ] ->
    ()
  | _ -> Alcotest.fail "expected LDQ_U + extract");
  (* semantics: value at a misaligned-for-quad address *)
  let memory = Memory.create ~size:4096 in
  Memory.store memory ~addr:130L ~width:Width.W16 0xFFFEL;
  Alcotest.(check int64) "sign-extended value" (-2L)
    (exec ~machine:Machine.alpha ~memory ~args:[ 128L ] f)

let test_legalize_alpha_store () =
  let f =
    func_of ~params:[ reg 0 ]
      [
        Rtl.Store
          { src = Rtl.Imm 0xABCDL;
            dst = { base = reg 0; disp = 2L; width = Width.W16;
                    aligned = true } };
        Rtl.Ret None;
      ]
  in
  ignore (Mac_opt.Legalize.run f Machine.alpha);
  let memory = Memory.create ~size:4096 in
  Memory.store memory ~addr:128L ~width:Width.W64 0x1111111111111111L;
  ignore (exec ~machine:Machine.alpha ~memory ~args:[ 128L ] f);
  Alcotest.(check int64) "only the halfword changed" 0x11111111ABCD1111L
    (Memory.load memory ~addr:128L ~width:Width.W64 ~sign:Rtl.Unsigned)

let test_legalize_split_doubleword () =
  (* a long on a 32-bit machine becomes two word accesses *)
  let f =
    func_of ~params:[ reg 0 ]
      [
        Rtl.Load
          { dst = reg 2;
            src = { base = reg 0; disp = 0L; width = Width.W64;
                    aligned = true };
            sign = Rtl.Signed };
        Rtl.Store
          { src = Rtl.Reg (reg 2);
            dst = { base = reg 0; disp = 8L; width = Width.W64;
                    aligned = true } };
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  ignore (Mac_opt.Legalize.run f Machine.mc88100);
  List.iter
    (fun (i : Rtl.inst) ->
      match Rtl.mem_of i.kind with
      | Some m ->
        Alcotest.(check bool) "only word accesses" true
          (Width.equal m.width Width.W32)
      | None -> ())
    f.body;
  let memory = Memory.create ~size:4096 in
  Memory.store memory ~addr:128L ~width:Width.W64 0x1122334455667788L;
  Alcotest.(check int64) "value reassembled" 0x1122334455667788L
    (exec ~machine:Machine.mc88100 ~memory ~args:[ 128L ] f);
  Alcotest.(check int64) "copy written" 0x1122334455667788L
    (Memory.load memory ~addr:136L ~width:Width.W64 ~sign:Rtl.Unsigned)

let test_legalize_noop_when_native () =
  let f =
    func_of
      [
        Rtl.Load
          { dst = reg 2;
            src = { base = reg 0; disp = 0L; width = Width.W8;
                    aligned = true };
            sign = Rtl.Unsigned };
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  Alcotest.(check bool) "88100 untouched" false
    (Mac_opt.Legalize.run f Machine.mc88100)

(* --- scheduler --- *)

let test_sched_respects_dependences () =
  let insts =
    List.map
      (fun k -> { Rtl.uid = Oo.id (object end); kind = k })
      [
        Rtl.Move (reg 1, Rtl.Imm 1L);
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 1), Rtl.Imm 1L);
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 2), Rtl.Imm 1L);
      ]
  in
  let order = Mac_opt.Sched.reorder Test32.machine insts in
  Alcotest.(check int) "permutation" (List.length insts) (List.length order);
  let pos uid =
    let rec go i = function
      | [] -> -1
      | (x : Rtl.inst) :: rest -> if x.uid = uid then i else go (i + 1) rest
    in
    go 0 order
  in
  let uids = List.map (fun (i : Rtl.inst) -> i.uid) insts in
  (match uids with
  | [ a; b; c ] ->
    Alcotest.(check bool) "a before b" true (pos a < pos b);
    Alcotest.(check bool) "b before c" true (pos b < pos c)
  | _ -> assert false)

let test_sched_hides_latency () =
  (* two independent loads + uses: scheduling can overlap the latencies *)
  let mk k = { Rtl.uid = Oo.id (object end); kind = k } in
  let mem d = { Rtl.base = reg 0; disp = Int64.of_int d; width = Width.W32;
                aligned = true } in
  let dependent =
    [
      mk (Rtl.Load { dst = reg 1; src = mem 0; sign = Rtl.Signed });
      mk (Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 1), Rtl.Imm 1L));
      mk (Rtl.Load { dst = reg 3; src = mem 8; sign = Rtl.Signed });
      mk (Rtl.Binop (Rtl.Add, reg 4, Rtl.Reg (reg 3), Rtl.Imm 1L));
    ]
  in
  let scheduled = Mac_opt.Sched.block_cycles Machine.alpha dependent in
  let sequential = Mac_opt.Sched.sequential_cycles Machine.alpha dependent in
  Alcotest.(check bool) "list scheduling no worse" true
    (scheduled <= sequential)

let test_sched_memory_ordering () =
  (* store then load of the same location must stay ordered *)
  let mk k = { Rtl.uid = Oo.id (object end); kind = k } in
  let mem = { Rtl.base = reg 0; disp = 0L; width = Width.W32;
              aligned = true } in
  let insts =
    [
      mk (Rtl.Store { src = Rtl.Imm 1L; dst = mem });
      mk (Rtl.Load { dst = reg 1; src = mem; sign = Rtl.Signed });
    ]
  in
  match Mac_opt.Sched.reorder Test32.machine insts with
  | [ first; _ ] ->
    Alcotest.(check bool) "store first" true
      (match first.Rtl.kind with Rtl.Store _ -> true | _ -> false)
  | _ -> Alcotest.fail "length"

let test_sched_disjoint_mem_can_reorder () =
  let mk k = { Rtl.uid = Oo.id (object end); kind = k } in
  let mem d = { Rtl.base = reg 0; disp = Int64.of_int d; width = Width.W32;
                aligned = true } in
  (* a slow multiply feeding a store, then an independent load from a
     provably disjoint address: the load may move up *)
  let insts =
    [
      mk (Rtl.Binop (Rtl.Mul, reg 1, Rtl.Reg (reg 0), Rtl.Reg (reg 0)));
      mk (Rtl.Store { src = Rtl.Reg (reg 1); dst = mem 0 });
      mk (Rtl.Load { dst = reg 2; src = mem 8; sign = Rtl.Signed });
    ]
  in
  let cycles = Mac_opt.Sched.block_cycles Machine.alpha insts in
  let seq = Mac_opt.Sched.sequential_cycles Machine.alpha insts in
  Alcotest.(check bool) "reordering no worse" true (cycles <= seq)

(* --- strength reduction --- *)

let compile_sr ?(machine = Test32.machine) level src =
  let cfg = Mac_vpo.Pipeline.config ~level ~strength_reduce:true machine in
  Mac_vpo.Pipeline.compile_source cfg src

let sum_src =
  "int sum(short a[], int n) { int s = 0; int i; for (i = 0; i < n; i++)    s += a[i]; return s; }"

let test_strength_pointerizes () =
  let compiled = compile_sr Mac_vpo.Pipeline.O1 sum_src in
  let f = List.hd compiled.funcs in
  (* The loop body must contain no shift (index scaling) — addresses come
     from a derived pointer. *)
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  match Mac_cfg.Loop.natural_loops cfg dom with
  | [ l ] ->
    let block = cfg.blocks.(l.Mac_cfg.Loop.header) in
    let shifts =
      List.filter
        (fun (i : Rtl.inst) ->
          match i.kind with
          | Rtl.Binop (Rtl.Shl, _, _, _) -> true
          | _ -> false)
        block.insts
    in
    Alcotest.(check int) "no index scaling left in the body" 0
      (List.length shifts);
    (* and the counter is gone: the back branch compares pointers *)
    (match List.rev block.insts with
    | { Rtl.kind = Rtl.Branch { cmp = Rtl.Ltu; _ }; _ } :: _ -> ()
    | _ -> Alcotest.fail "expected an unsigned pointer-compare back branch")
  | _ -> Alcotest.fail "expected one loop"

let test_strength_preserves_semantics () =
  let memory = Memory.create ~size:8192 in
  for i = 0 to 49 do
    Memory.store memory
      ~addr:(Int64.of_int (64 + (2 * i)))
      ~width:Width.W16
      (Int64.of_int (i * 3))
  done;
  let run level sr =
    let cfg =
      Mac_vpo.Pipeline.config ~level ~strength_reduce:sr Test32.machine
    in
    let compiled = Mac_vpo.Pipeline.compile_source cfg sum_src in
    let mem2 = Memory.create ~size:8192 in
    Memory.store_bytes mem2 ~addr:8L
      (Memory.load_bytes memory ~addr:8L ~len:512);
    (Interp.run ~machine:Test32.machine ~memory:mem2 compiled.funcs
       ~entry:"sum" ~args:[ 64L; 50L ] ())
      .value
  in
  let expected = run Mac_vpo.Pipeline.O0 false in
  List.iter
    (fun level ->
      Alcotest.(check int64) "same sum" expected (run level true))
    Mac_vpo.Pipeline.[ O1; O2; O3; O4 ]

let test_strength_stats () =
  let funcs = Mac_minic.Lower.compile sum_src in
  let f = List.hd funcs in
  classic_opts f;
  let stats = Mac_opt.Strength.run f in
  Alcotest.(check int) "one loop rewritten" 1 stats.loops;
  Alcotest.(check bool) "a pointer was introduced" true (stats.pointers >= 1);
  Alcotest.(check bool) "references rewritten" true
    (stats.refs_rewritten >= 1)

let test_strength_skips_register_stride () =
  (* a loop whose address advance is a run-time value must be untouched *)
  let src =
    "int sum(short a[], int n, int stride) { int s = 0; int i; for (i = 0;      i < n; i++) s += a[i * stride]; return s; }"
  in
  let funcs = Mac_minic.Lower.compile src in
  let f = List.hd funcs in
  classic_opts f;
  let stats = Mac_opt.Strength.run f in
  Alcotest.(check int) "no pointer for register stride" 0 stats.pointers

(* --- faint-variable DCE --- *)

let test_dce_faint_counter () =
  (* i = i + 1 keeps itself alive through liveness; faint analysis kills
     it *)
  let f =
    func_of ~params:[ reg 0 ]
      [
        Rtl.Move (reg 2, Rtl.Imm 0L);
        Rtl.Label "L";
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 3), Rtl.Imm 4L);
        Rtl.Branch
          { cmp = Rtl.Ltu; l = Rtl.Reg (reg 3); r = Rtl.Reg (reg 0);
            target = "L" };
        Rtl.Ret (Some (Rtl.Reg (reg 3)));
      ]
  in
  ignore (Mac_opt.Dce.run f);
  let has_r2 =
    List.exists
      (fun (i : Rtl.inst) ->
        List.exists (Reg.equal (reg 2)) (Rtl.defs i.kind @ Rtl.uses i.kind))
      f.body
  in
  Alcotest.(check bool) "faint counter removed" false has_r2;
  (* the branch-feeding counter survives *)
  let has_r3 =
    List.exists
      (fun (i : Rtl.inst) ->
        List.exists (Reg.equal (reg 3)) (Rtl.defs i.kind))
      f.body
  in
  Alcotest.(check bool) "live counter kept" true has_r3

(* --- cleanflow --- *)

let test_cleanflow_drops_jump_to_next () =
  let f =
    func_of ~params:[]
      [
        Rtl.Jump "L";
        Rtl.Label "L";
        Rtl.Ret None;
      ]
  in
  Alcotest.(check bool) "changed" true (Mac_opt.Cleanflow.run f);
  Alcotest.(check bool) "jump gone" true
    (List.for_all
       (fun (i : Rtl.inst) ->
         match i.kind with Rtl.Jump _ -> false | _ -> true)
       f.body)

let test_cleanflow_inverts_branch_over_jump () =
  let f =
    func_of
      [
        Rtl.Branch { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Reg (reg 1);
                     target = "Lthen" };
        Rtl.Jump "Lelse";
        Rtl.Label "Lthen";
        Rtl.Move (reg 2, Rtl.Imm 1L);
        Rtl.Jump "Lend";
        Rtl.Label "Lelse";
        Rtl.Move (reg 2, Rtl.Imm 2L);
        Rtl.Label "Lend";
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let before_lt = exec ~args:[ 1L; 5L ] f
  and before_ge = exec ~args:[ 5L; 1L ] f in
  Alcotest.(check bool) "changed" true (Mac_opt.Cleanflow.run f);
  (match f.body with
  | { Rtl.kind = Rtl.Branch { cmp = Rtl.Ge; target = "Lelse"; _ }; _ } :: _
    ->
    ()
  | _ -> Alcotest.fail "expected an inverted branch first");
  Alcotest.(check int64) "lt case preserved" before_lt
    (exec ~args:[ 1L; 5L ] f);
  Alcotest.(check int64) "ge case preserved" before_ge
    (exec ~args:[ 5L; 1L ] f)

let test_cleanflow_threads_jump_chains () =
  let f =
    func_of
      [
        Rtl.Branch { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Reg (reg 1);
                     target = "Lhop" };
        Rtl.Ret (Some (Rtl.Imm 0L));
        Rtl.Label "Lhop";
        Rtl.Jump "Lfinal";
        Rtl.Label "Lfinal";
        Rtl.Ret (Some (Rtl.Imm 1L));
      ]
  in
  ignore (Mac_opt.Cleanflow.run f);
  (match f.body with
  | { Rtl.kind = Rtl.Branch { target; _ }; _ } :: _ ->
    Alcotest.(check string) "threaded through the hop" "Lfinal" target
  | _ -> Alcotest.fail "expected a branch first");
  Alcotest.(check int64) "taken path" 1L (exec ~args:[ 0L; 5L ] f);
  Alcotest.(check int64) "fallthrough path" 0L (exec ~args:[ 5L; 0L ] f)

let test_cleanflow_drops_unreferenced_labels () =
  let f =
    func_of ~params:[]
      [
        Rtl.Move (reg 0, Rtl.Imm 1L);
        Rtl.Label "Ldead";
        Rtl.Move (reg 1, Rtl.Reg (reg 0));
        Rtl.Ret (Some (Rtl.Reg (reg 1)));
      ]
  in
  ignore (Mac_opt.Cleanflow.run f);
  Alcotest.(check bool) "label gone" false (has_label f "Ldead");
  Alcotest.(check int64) "semantics" 1L (exec f)

(* --- combine (induction-update combining) --- *)

let test_combine_merges_increments () =
  let mem d r = { Rtl.base = r; disp = Int64.of_int d; width = Width.W8;
                  aligned = true } in
  let f =
    func_of ~params:[ reg 0 ]
      [
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Load { dst = reg 1; src = mem 0 (reg 0); sign = Rtl.Unsigned };
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Load { dst = reg 2; src = mem 0 (reg 0); sign = Rtl.Unsigned };
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 1), Rtl.Reg (reg 2));
        Rtl.Ret (Some (Rtl.Reg (reg 3)));
      ]
  in
  Alcotest.(check bool) "changed" true (Mac_opt.Combine.run f);
  let adds_to_r0 =
    List.length
      (List.filter
         (fun (i : Rtl.inst) ->
           match i.kind with
           | Rtl.Binop (Rtl.Add, d, _, _) -> Reg.equal d (reg 0)
           | _ -> false)
         f.body)
  in
  Alcotest.(check int) "one combined increment" 1 adds_to_r0;
  (* displacements absorbed the deferred offsets *)
  let disps =
    List.filter_map
      (fun (i : Rtl.inst) ->
        match i.kind with
        | Rtl.Load { src; _ } -> Some src.disp
        | _ -> None)
      f.body
  in
  Alcotest.(check bool) "disps 1 and 2" true (disps = [ 1L; 2L ]);
  (* semantics *)
  let memory = Memory.create ~size:256 in
  Memory.store memory ~addr:65L ~width:Width.W8 10L;
  Memory.store memory ~addr:66L ~width:Width.W8 32L;
  Alcotest.(check int64) "value" 42L
    (exec ~memory ~args:[ 64L ] f)

let test_combine_flushes_before_observation () =
  (* the increment must materialise before a non-memory use *)
  let f =
    func_of ~params:[ reg 0 ]
      [
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 5L);
        Rtl.Binop (Rtl.Add, reg 1, Rtl.Reg (reg 0), Rtl.Imm 0L);
        Rtl.Ret (Some (Rtl.Reg (reg 1)));
      ]
  in
  ignore (Mac_opt.Combine.run f);
  Alcotest.(check int64) "observed value includes increment" 15L
    (exec ~args:[ 10L ] f)

let test_combine_flushes_at_branch () =
  let f =
    func_of ~params:[ reg 0; reg 1 ]
      [
        Rtl.Label "L";
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Reg (reg 1);
            target = "L" };
        Rtl.Ret (Some (Rtl.Reg (reg 0)));
      ]
  in
  ignore (Mac_opt.Combine.run f);
  Alcotest.(check int64) "loop still counts" 7L (exec ~args:[ 0L; 7L ] f)

let test_combine_redefinition_drops () =
  (* p += 4 then p completely redefined: the deferred add must not leak *)
  let f =
    func_of ~params:[ reg 0; reg 1 ]
      [
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 4L);
        Rtl.Move (reg 0, Rtl.Reg (reg 1));
        Rtl.Ret (Some (Rtl.Reg (reg 0)));
      ]
  in
  ignore (Mac_opt.Combine.run f);
  Alcotest.(check int64) "redefined value wins" 99L
    (exec ~args:[ 1L; 99L ] f)

let test_combine_lone_increment_unchanged () =
  (* nothing absorbs the increment, so it is flushed back unmoved at the
     branch: no rewrite, and the instruction keeps its uid *)
  let f =
    func_of ~params:[ reg 0; reg 1 ]
      [
        Rtl.Label "L";
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Reg (reg 1);
            target = "L" };
        Rtl.Ret (Some (Rtl.Reg (reg 0)));
      ]
  in
  let body = f.body in
  let uid = (List.nth body 1).Rtl.uid in
  Alcotest.(check bool) "no change reported" false (Mac_opt.Combine.run f);
  Alcotest.(check bool) "body untouched" true (f.body == body);
  Alcotest.(check int) "increment keeps its uid" uid (List.nth f.body 1).uid

(* --- the classic fixed point --- *)

(* The rounds stop at the first round that changes nothing, so on a
   function the pipeline left converged every classic pass must report no
   change and leave the body physically untouched: 8 programs x 3
   machines x O1-O4. *)
let test_classic_passes_idle_when_converged () =
  let module W = Mac_workloads.Workloads in
  let passes =
    [
      ("simplify", Mac_opt.Simplify.run);
      ("copyprop", fun f -> Mac_opt.Copyprop.run f);
      ("cse", Mac_opt.Cse.run);
      ("combine", Mac_opt.Combine.run);
      ("cleanflow", Mac_opt.Cleanflow.run);
      ("dce", fun f -> Mac_opt.Dce.run f);
    ]
  in
  List.iter
    (fun (b : W.t) ->
      List.iter
        (fun machine ->
          List.iter
            (fun level ->
              let cfg = Mac_vpo.Pipeline.config ~level machine in
              let c = Mac_vpo.Pipeline.compile_source cfg b.source in
              List.iter
                (fun (f : Func.t) ->
                  List.iter
                    (fun (name, run) ->
                      let what =
                        Printf.sprintf "%s %s/%s/%s" name b.name
                          machine.Machine.name
                          (Mac_vpo.Pipeline.level_to_string level)
                      in
                      let body = f.body in
                      Alcotest.(check bool) (what ^ " reports no change") false
                        (run f);
                      Alcotest.(check bool) (what ^ " keeps the body") true
                        (f.body == body))
                    passes)
                c.funcs)
            Mac_vpo.Pipeline.[ O1; O2; O3; O4 ])
        Machine.[ alpha; mc88100; mc68030 ])
    (W.dotproduct :: W.all)

(* A chain [r2 = 0; r3 = r2 + 1; ...; rN = r(N-1) + 1] folds one link
   per round: simplify turns the link whose operand copyprop replaced
   last round into a constant move, and copyprop carries that constant
   one link further. *)
let const_chain links =
  func_of
    (Rtl.Move (reg 2, Rtl.Imm 0L)
     :: List.init links (fun k ->
            Rtl.Binop (Rtl.Add, reg (k + 3), Rtl.Reg (reg (k + 2)), Rtl.Imm 1L))
    @ [ Rtl.Ret (Some (Rtl.Reg (reg (links + 2)))) ])

(* A budget used up while a round still changes something is reported,
   naming the pass group, the function and the passes still at work. *)
let test_classic_budget_exhaustion_reported () =
  (match Mac_vpo.Pipeline.classic_opts (const_chain 16) with
  | [ (d : Mac_verify.Diagnostic.t) ] ->
    Alcotest.(check bool) "a warning" true
      (d.severity = Mac_verify.Diagnostic.Warning);
    Alcotest.(check string) "pass" "classic-opts" d.pass;
    Alcotest.(check (option string)) "function" (Some "t") d.func;
    Alcotest.(check string) "reason"
      "no fixed point after 10 rounds: the last round still changed the \
       function (simplify, copyprop, dce)"
      d.message
  | ds ->
    Alcotest.failf "expected one warning, got %d" (List.length ds));
  let f = const_chain 4 in
  Alcotest.(check int) "a short chain converges" 0
    (List.length (Mac_vpo.Pipeline.classic_opts f));
  Alcotest.(check bool) "folded to a constant" true
    (kinds_of f = [ Rtl.Ret (Some (Rtl.Imm 4L)) ])

(* --- schedule pass --- *)

let test_schedule_pass_preserves_semantics () =
  let module W = Mac_workloads.Workloads in
  List.iter
    (fun (b : W.t) ->
      let o =
        W.run ~size:16 ~schedule:true ~machine:Machine.alpha
          ~level:Mac_vpo.Pipeline.O4 b
      in
      Alcotest.(check (option string)) (b.name ^ " scheduled") None o.error)
    W.all

let test_schedule_pass_not_slower () =
  let module W = Mac_workloads.Workloads in
  let bench = Option.get (W.find "image_add16") in
  let cycles schedule =
    (W.run ~size:32 ~schedule ~machine:Machine.alpha
       ~level:Mac_vpo.Pipeline.O4 bench)
      .metrics.cycles
  in
  Alcotest.(check bool) "scheduling does not hurt" true
    (cycles true <= cycles false)

(* --- register allocation --- *)

let test_regalloc_renames_to_machine_set () =
  let cfg =
    Mac_vpo.Pipeline.config ~level:Mac_vpo.Pipeline.O1 ~regalloc:12
      Test32.machine
  in
  let compiled =
    Mac_vpo.Pipeline.compile_source cfg
      "int f(int a, int b) { return a * b + a - b; }"
  in
  let f = List.hd compiled.funcs in
  List.iter
    (fun (i : Rtl.inst) ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "r[%d] within machine set" (Reg.id r))
            true
            (Reg.id r <= 12))
        (Rtl.defs i.kind @ Rtl.uses i.kind))
    f.body

let run_workload_with_regalloc ~num_regs =
  let module W = Mac_workloads.Workloads in
  let o =
    W.run ~size:16 ~regalloc:num_regs ~machine:Test32.machine
      ~level:Mac_vpo.Pipeline.O4 W.dotproduct
  in
  o

let test_regalloc_no_spill_semantics () =
  let o = run_workload_with_regalloc ~num_regs:32 in
  Alcotest.(check (option string)) "correct with 32 regs" None o.error

let test_regalloc_spill_semantics () =
  (* 8 registers force spills in the coalesced dot product *)
  let o = run_workload_with_regalloc ~num_regs:8 in
  Alcotest.(check (option string)) "correct with 8 regs" None o.error

let test_regalloc_spills_across_suite () =
  let module W = Mac_workloads.Workloads in
  List.iter
    (fun (b : W.t) ->
      let o =
        W.run ~size:16 ~regalloc:9 ~machine:Test32.machine
          ~level:Mac_vpo.Pipeline.O4 b
      in
      Alcotest.(check (option string)) (b.name ^ " with 9 regs") None
        o.error)
    W.all

let test_regalloc_too_few () =
  let f =
    Mac_minic.Lower.compile "int f(int a, int b, int c) { return a+b+c; }"
    |> List.hd
  in
  Alcotest.check_raises "3 params cannot fit 6 registers"
    (Mac_opt.Regalloc.Too_few_registers "6 registers for 3 parameters")
    (fun () ->
      ignore (Mac_opt.Regalloc.run f ~machine:Test32.machine ~num_regs:6))

let test_regalloc_frame_recorded () =
  let module W = Mac_workloads.Workloads in
  let cfg =
    Mac_vpo.Pipeline.config ~level:Mac_vpo.Pipeline.O4 ~regalloc:8
      Test32.machine
  in
  let compiled = Mac_vpo.Pipeline.compile_source cfg W.dotproduct_src in
  let f = List.hd compiled.funcs in
  Alcotest.(check bool) "spilling recorded a frame" true
    (f.Func.frame_bytes > 0);
  Alcotest.(check bool) "frame pointer set" true (f.Func.fp_reg <> None)

(* On a machine without 64-bit loads and stores a spilled register
   travels as two W32 halves and comes back exact: both a 64-bit value
   and a zero-extended word with bit 31 set, whose logical shift would
   change if the reload sign-extended it. *)
let test_regalloc_split_spill_exact () =
  let word = { Rtl.base = reg 0; disp = 0L; width = Width.W32;
               aligned = true } in
  let build () =
    let f = Func.create ~name:"t" ~params:[ reg 0 ] in
    List.iter (Func.append f)
      [
        Rtl.Load { dst = reg 1; src = word; sign = Rtl.Unsigned };
        Rtl.Binop (Rtl.Shl, reg 2, Rtl.Reg (reg 1), Rtl.Imm 32L);
        Rtl.Binop (Rtl.Or, reg 2, Rtl.Reg (reg 2), Rtl.Reg (reg 1));
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 2), Rtl.Imm 3L);
        Rtl.Binop (Rtl.Mul, reg 4, Rtl.Reg (reg 3), Rtl.Imm 5L);
        Rtl.Binop (Rtl.Xor, reg 5, Rtl.Reg (reg 4), Rtl.Reg (reg 3));
        Rtl.Binop (Rtl.Lshr, reg 6, Rtl.Reg (reg 2), Rtl.Imm 7L);
        Rtl.Binop (Rtl.Add, reg 6, Rtl.Reg (reg 6), Rtl.Reg (reg 5));
        Rtl.Binop (Rtl.Xor, reg 6, Rtl.Reg (reg 6), Rtl.Reg (reg 4));
        Rtl.Binop (Rtl.Sub, reg 6, Rtl.Reg (reg 6), Rtl.Reg (reg 3));
        Rtl.Binop (Rtl.Lshr, reg 7, Rtl.Reg (reg 1), Rtl.Imm 4L);
        Rtl.Binop (Rtl.Xor, reg 6, Rtl.Reg (reg 6), Rtl.Reg (reg 7));
        Rtl.Ret (Some (Rtl.Reg (reg 6)));
      ];
    f
  in
  let run f =
    let memory = Memory.create ~size:512 in
    Memory.store memory ~addr:256L ~width:Width.W32 0xF000_0001L;
    (Interp.run ~machine:Machine.mc88100 ~memory [ f ] ~entry:"t"
       ~args:[ 256L ] ())
      .value
  in
  let f = build () in
  let r =
    Mac_opt.Regalloc.run f ~machine:Machine.mc88100
      ~num_regs:(List.length f.params + 4)
  in
  Alcotest.(check bool) "values spilled" true (r.spilled >= 2);
  List.iter
    (fun (i : Rtl.inst) ->
      match i.kind with
      | Rtl.Load { src = m; _ } | Rtl.Store { dst = m; _ } ->
        Alcotest.(check bool)
          (Fmt.str "%a legal on mc88100" Width.pp m.width)
          true
          (Machine.legal_load Machine.mc88100 m.width ~aligned:m.aligned
          && Machine.legal_store Machine.mc88100 m.width ~aligned:m.aligned)
      | _ -> ())
    f.body;
  Alcotest.(check int64) "allocated result" (run (build ())) (run f)

(* Property: optimization pipeline preserves semantics of small functions. *)
let random_linear_func =
  (* straight-line functions over 4 registers with arithmetic only *)
  let open QCheck.Gen in
  let gen =
    let* n = int_range 1 12 in
    let* ops =
      list_repeat n
        (triple (oneofl [ Rtl.Add; Rtl.Sub; Rtl.Mul; Rtl.Xor; Rtl.And ])
           (pair (int_bound 3) (int_bound 3))
           (int_bound 50))
    in
    return
      (let f = Func.create ~name:"t" ~params:[ reg 0; reg 1 ] in
       List.iter
         (fun (op, (d, s), imm) ->
           Func.append f
             (Rtl.Binop
                (op, reg d, Rtl.Reg (reg s), Rtl.Imm (Int64.of_int imm))))
         ops;
       Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 3))));
       f)
  in
  QCheck.make gen

let clone_func (f : Func.t) =
  let g = Func.create ~name:f.name ~params:f.params in
  g.next_reg <- f.next_reg;
  g.next_label <- f.next_label;
  List.iter (fun (i : Rtl.inst) -> Func.append g i.kind) f.body;
  g

(* Random branchy programs over registers and a small memory window, for
   per-pass semantic preservation. *)
let random_branchy_func =
  let open QCheck.Gen in
  let gen =
    let* n_blocks = int_range 1 4 in
    let* blocks =
      list_repeat n_blocks
        (pair
           (list_size (int_range 1 5)
              (frequency
                 [
                   ( 4,
                     let* op =
                       oneofl [ Rtl.Add; Rtl.Sub; Rtl.Mul; Rtl.Xor;
                                Rtl.And; Rtl.Or ]
                     in
                     let* d = int_bound 3 in
                     let* a = int_bound 3 in
                     let* imm = int_bound 50 in
                     return
                       (Rtl.Binop
                          (op, reg d, Rtl.Reg (reg a),
                           Rtl.Imm (Int64.of_int imm))) );
                   ( 1,
                     let* d = int_bound 3 in
                     let* slot = int_bound 3 in
                     return
                       (Rtl.Load
                          { dst = reg d;
                            src = { base = reg 4;
                                    disp = Int64.of_int (8 * slot);
                                    width = Width.W64; aligned = true };
                            sign = Rtl.Unsigned }) );
                   ( 1,
                     let* a = int_bound 3 in
                     let* slot = int_bound 3 in
                     return
                       (Rtl.Store
                          { src = Rtl.Reg (reg a);
                            dst = { base = reg 4;
                                    disp = Int64.of_int (8 * slot);
                                    width = Width.W64; aligned = true } }) );
                 ]))
           (int_bound (max 0 (n_blocks - 1))))
    in
    return
      (let f = Func.create ~name:"t" ~params:[ reg 0; reg 1; reg 4 ] in
       List.iteri
         (fun bi (kinds, target) ->
           Func.append f (Rtl.Label (Printf.sprintf "B%d" bi));
           List.iter (Func.append f) kinds;
           (* forward-only branches guarantee termination *)
           if target > bi then
             Func.append f
               (Rtl.Branch
                  { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Reg (reg 1);
                    target = Printf.sprintf "B%d" target }))
         blocks;
       Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 3))));
       f)
  in
  QCheck.make gen

let run_branchy (f : Func.t) =
  let memory = Memory.create ~size:512 in
  for slot = 0 to 3 do
    Memory.store memory
      ~addr:(Int64.of_int (256 + (8 * slot)))
      ~width:Width.W64
      (Int64.of_int (slot * 1111))
  done;
  let r =
    Interp.run ~machine:Test32.machine ~memory [ f ] ~entry:"t"
      ~args:[ 3L; 7L; 256L ] ()
  in
  (r.value, Memory.load_bytes memory ~addr:256L ~len:32)

let clone_branchy (f : Func.t) =
  let g = Func.create ~name:f.name ~params:f.params in
  List.iter (fun (i : Rtl.inst) -> Func.append g i.kind) f.body;
  g

let per_pass_property name pass =
  QCheck.Test.make
    ~name:(name ^ " preserves branchy semantics")
    ~count:150 random_branchy_func
    (fun f ->
      let g = clone_branchy f in
      ignore (pass g);
      run_branchy f = run_branchy g)

let prop_pass_semantics =
  [
    per_pass_property "simplify" Mac_opt.Simplify.run;
    per_pass_property "copyprop" Mac_opt.Copyprop.run;
    per_pass_property "cse" Mac_opt.Cse.run;
    per_pass_property "combine" Mac_opt.Combine.run;
    per_pass_property "cleanflow" Mac_opt.Cleanflow.run;
    per_pass_property "dce" Mac_opt.Dce.run;
    per_pass_property "strength" (fun f -> ignore (Mac_opt.Strength.run f));
    per_pass_property "regalloc8"
      (fun f ->
        ignore (Mac_opt.Regalloc.run f ~machine:Test32.machine ~num_regs:8));
    (* the three parameters fill every allocatable register, so the
       other values spill as two W32 halves *)
    per_pass_property "regalloc7 on mc88100"
      (fun f ->
        ignore (Mac_opt.Regalloc.run f ~machine:Machine.mc88100 ~num_regs:7));
  ]

(* Scheduler: any reordering it produces leaves execution results
   unchanged. *)
let prop_sched_reorder_safe =
  QCheck.Test.make ~name:"scheduler reordering preserves semantics"
    ~count:150 random_branchy_func
    (fun f ->
      let g = clone_branchy f in
      let cfg = Mac_cfg.Cfg.build g in
      let body' =
        Array.to_list cfg.blocks
        |> List.concat_map (fun (b : Mac_cfg.Cfg.block) ->
               Mac_opt.Sched.reorder Machine.alpha b.insts)
      in
      Func.set_body g body';
      run_branchy f = run_branchy g)

(* Unrolling by any factor preserves the counted-loop sum for any trip
   count (divisible or not: the dispatch decides). *)
let prop_unroll_any_factor =
  QCheck.Test.make ~name:"unrolling correct for any factor and trip count"
    ~count:150
    (QCheck.triple (QCheck.int_range 2 8) (QCheck.int_range 0 40)
       QCheck.bool)
    (fun (factor, n, remainder) ->
      let f = counted_loop () in
      let s = simple_of_func f in
      match
        Mac_opt.Unroll.run f ~machine:Test32.machine ~factor ~remainder s
      with
      | None -> false
      | Some _ ->
        let expected = Int64.of_int (n * (n - 1) / 2) in
        (* the loop body runs at least once (bottom test) even for n = 0 *)
        let expected = if n = 0 then 0L else expected in
        Int64.equal (sum_with_loop f (Int64.of_int n)) expected)

let prop_classic_opts_preserve_semantics =
  QCheck.Test.make ~name:"classic opts preserve straight-line semantics"
    ~count:200 random_linear_func (fun f ->
      let g = clone_func f in
      let converged = Mac_vpo.Pipeline.classic_opts g = [] in
      let run h = exec ~args:[ 7L; -3L ] h in
      converged && Int64.equal (run f) (run g))

(* --- software pipeliner (-Osched) properties ----------------------- *)

module Ps = Mac_opt.Pipeline_sched

(* A machine with long load and multiply latencies: dependence chains
   span many cycles, so the modulo scheduler has room to overlap
   iterations (S >= 2) instead of merely reordering in place. *)
let deep32 =
  { Test32.machine with name = "deep32"; load_latency = 6; mul_latency = 12 }

(* Random accumulator loops: a few loads/arithmetic ops off a base
   pointer (reg 0), an accumulator update (reg 3), a unit-step counter
   (reg 2) against the bound (reg 1). The shape the pipeliner targets —
   and stores force the conservative cross-iteration memory edges. *)
let random_accum_loop =
  let open QCheck.Gen in
  let mem_slot slot =
    { Rtl.base = reg 0; disp = Int64.of_int (8 * slot); width = Width.W64;
      aligned = true }
  in
  let gen =
    let* work =
      list_size (int_range 1 6)
        (frequency
           [
             ( 3,
               let* d = int_range 4 7 in
               let* slot = int_bound 3 in
               return
                 (Rtl.Load
                    { dst = reg d; src = mem_slot slot; sign = Rtl.Unsigned })
             );
             ( 3,
               let* op = oneofl [ Rtl.Add; Rtl.Sub; Rtl.Xor; Rtl.Mul ] in
               let* d = int_range 4 7 in
               let* a = int_range 2 7 in
               let* imm = int_bound 50 in
               return
                 (Rtl.Binop
                    (op, reg d, Rtl.Reg (reg a), Rtl.Imm (Int64.of_int imm)))
             );
             ( 1,
               let* a = int_range 2 7 in
               let* slot = int_bound 3 in
               return
                 (Rtl.Store { src = Rtl.Reg (reg a); dst = mem_slot slot }) );
           ])
    in
    let* acc_src = int_range 4 7 in
    return
      (let f = Func.create ~name:"t" ~params:[ reg 0; reg 1 ] in
       Func.append f (Rtl.Move (reg 2, Rtl.Imm 0L));
       Func.append f (Rtl.Move (reg 3, Rtl.Imm 0L));
       Func.append f (Rtl.Label "Lhead");
       List.iter (Func.append f) work;
       Func.append f
         (Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 3), Rtl.Reg (reg acc_src)));
       Func.append f (Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L));
       Func.append f
         (Rtl.Branch
            { cmp = Rtl.Lt; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 1);
              target = "Lhead" });
       Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 3))));
       f)
  in
  QCheck.make gen

let run_accum (f : Func.t) =
  let memory = Memory.create ~size:512 in
  for slot = 0 to 3 do
    Memory.store memory
      ~addr:(Int64.of_int (256 + (8 * slot)))
      ~width:Width.W64
      (Int64.of_int ((slot + 1) * 37))
  done;
  let r =
    Interp.run ~machine:deep32 ~memory [ f ] ~entry:"t" ~args:[ 256L; 6L ] ()
  in
  (r.value, Memory.load_bytes memory ~addr:256L ~len:32)

(* The pass keeps semantics, and every certificate it commits satisfies
   the published obligations: the achieved II never exceeds the list
   schedule ({!Sched.block_cycles} of the body), and the recorded times
   respect every dependence edge — t(dst) >= t(src) + lat - dist*II for
   both the intra-iteration and the distance-1 cross-iteration edges. *)
let prop_pipeline_sched_cert =
  QCheck.Test.make
    ~name:"software pipeliner: semantics kept, certs respect edges, II <= \
           list schedule"
    ~count:100 random_accum_loop
    (fun f ->
      let g = clone_branchy f in
      let _changed, reports = Ps.run g ~machine:deep32 in
      let sem_ok = run_accum f = run_accum g in
      let certs_ok =
        List.for_all
          (fun ((r : Ps.report), cert) ->
            match cert with
            | None -> true
            | Some (c : Ps.cert) ->
              let arr = Array.of_list c.Ps.c_body in
              let edges, _ = Ps.edges deep32 ~shared:c.Ps.c_shared arr in
              r.Ps.ii <= r.Ps.list_ii
              && r.Ps.ii = c.Ps.c_ii
              && List.for_all
                   (fun (e : Ps.edge) ->
                     c.Ps.c_times.(e.Ps.dst)
                     >= c.Ps.c_times.(e.Ps.src) + e.Ps.lat
                        - (e.Ps.dist * c.Ps.c_ii))
                   edges)
          reports
      in
      sem_ok && certs_ok)

(* The steady-state oracle never prices a body above its list schedule:
   a single-stage modulo schedule at the list II is always feasible. *)
let prop_steady_ii_bounded =
  QCheck.Test.make
    ~name:"steady_ii <= Sched.block_cycles on random loop bodies"
    ~count:100 random_accum_loop
    (fun f ->
      let body =
        List.filter
          (fun (i : Rtl.inst) ->
            match i.kind with
            | Rtl.Label _ | Rtl.Branch _ | Rtl.Ret _ -> false
            | _ -> true)
          f.Func.body
      in
      Ps.steady_ii deep32 body <= Mac_opt.Sched.block_cycles deep32 body)

(* A genuinely pipelined loop (S >= 2 on the deep-latency machine) runs
   correctly on the jit and bit-identically on the simulator oracle —
   same return value, same metrics, same final heap. *)
let test_pipeline_sched_matches_oracle () =
  let module W = Mac_workloads.Workloads in
  let module P = Mac_vpo.Pipeline in
  let j =
    W.run ~size:64 ~pipeline_sched:true ~machine:deep32 ~level:P.O1
      W.dotproduct
  in
  Alcotest.(check bool) "jit output correct" true j.W.correct;
  let compiled =
    P.compile_source
      (P.config ~level:P.O1 ~pipeline_sched:true deep32)
      W.dotproduct.W.source
  in
  let run ~oracle =
    let mem = Memory.create ~size:(1 lsl 17) in
    let inst = W.dotproduct.W.prepare W.default_layout ~size:64 mem in
    let r =
      (if oracle then Sim_oracle.run else Interp.run)
        ~machine:deep32 ~memory:mem compiled.funcs
        ~entry:W.dotproduct.W.entry ~args:inst.W.args ()
    in
    (r, Memory.load_bytes mem ~addr:8L ~len:((1 lsl 17) - 9))
  in
  let (rj : Interp.result), hj = run ~oracle:false in
  let (ro : Interp.result), ho = run ~oracle:true in
  List.iter
    (fun (name, (r : Interp.result)) ->
      Alcotest.(check int64) (name ^ " value") j.W.value r.value;
      Alcotest.(check bool) (name ^ " metrics identical") true
        (r.metrics = j.W.metrics))
    [ ("jit", rj); ("oracle", ro) ];
  Alcotest.(check bool) "oracle heap identical" true (Bytes.equal hj ho);
  let pipelined =
    List.exists
      (fun (_, rs) ->
        List.exists
          (fun ((rep : Ps.report), _) -> rep.Ps.status = Ps.Pipelined)
          rs)
      j.W.sched_reports
  in
  Alcotest.(check bool) "dotproduct software-pipelined on deep32" true
    pipelined

let () =
  Alcotest.run "opt"
    [
      ( "simplify",
        [
          Alcotest.test_case "folds" `Quick test_simplify_folds;
          Alcotest.test_case "div by zero kept" `Quick
            test_simplify_preserves_div_by_zero;
          Alcotest.test_case "semantics" `Quick test_simplify_run_semantics;
        ] );
      ( "copyprop",
        [
          Alcotest.test_case "basic" `Quick test_copyprop;
          Alcotest.test_case "chains" `Quick test_copyprop_chain;
          Alcotest.test_case "redef kills" `Quick
            test_copyprop_not_across_redef;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead" `Quick test_dce_removes_dead;
          Alcotest.test_case "keeps side effects" `Quick
            test_dce_keeps_stores_and_calls;
          Alcotest.test_case "transitive" `Quick test_dce_transitive;
          Alcotest.test_case "unreachable blocks" `Quick
            test_dce_removes_unreachable_blocks;
        ] );
      ( "cse",
        [
          Alcotest.test_case "reuses" `Quick test_cse_reuses_expression;
          Alcotest.test_case "redundant load" `Quick test_cse_redundant_load;
          Alcotest.test_case "store kills" `Quick
            test_cse_load_killed_by_store;
          Alcotest.test_case "self-update" `Quick
            test_cse_self_update_not_available;
        ] );
      ( "induction",
        [
          Alcotest.test_case "basic IVs" `Quick test_induction_basic;
          Alcotest.test_case "trip" `Quick test_trip_recognition;
          Alcotest.test_case "two increments fold" `Quick
            test_induction_two_increments_fold;
          Alcotest.test_case "register step" `Quick
            test_induction_variable_step_not_iv;
          Alcotest.test_case "post-CSE shape" `Quick
            test_induction_after_cse_shape;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "divisible" `Quick test_unroll_semantics_divisible;
          Alcotest.test_case "fallback" `Quick
            test_unroll_semantics_indivisible_falls_back;
          Alcotest.test_case "main loop used" `Quick
            test_unroll_main_loop_used_when_divisible;
          Alcotest.test_case "refusals" `Quick test_unroll_refuses;
          Alcotest.test_case "icache guard" `Quick test_unroll_icache_guard;
        ] );
      ( "strength",
        [
          Alcotest.test_case "pointerizes" `Quick test_strength_pointerizes;
          Alcotest.test_case "semantics" `Quick
            test_strength_preserves_semantics;
          Alcotest.test_case "stats" `Quick test_strength_stats;
          Alcotest.test_case "register stride skipped" `Quick
            test_strength_skips_register_stride;
          Alcotest.test_case "faint counter" `Quick test_dce_faint_counter;
        ] );
      ( "legalize",
        [
          Alcotest.test_case "alpha load" `Quick test_legalize_alpha_load;
          Alcotest.test_case "alpha store" `Quick test_legalize_alpha_store;
          Alcotest.test_case "doubleword split" `Quick
            test_legalize_split_doubleword;
          Alcotest.test_case "native noop" `Quick test_legalize_noop_when_native;
        ] );
      ( "cleanflow",
        [
          Alcotest.test_case "jump to next" `Quick
            test_cleanflow_drops_jump_to_next;
          Alcotest.test_case "branch over jump" `Quick
            test_cleanflow_inverts_branch_over_jump;
          Alcotest.test_case "jump chains" `Quick
            test_cleanflow_threads_jump_chains;
          Alcotest.test_case "unreferenced labels" `Quick
            test_cleanflow_drops_unreferenced_labels;
        ] );
      ( "combine",
        [
          Alcotest.test_case "merges increments" `Quick
            test_combine_merges_increments;
          Alcotest.test_case "flush before observation" `Quick
            test_combine_flushes_before_observation;
          Alcotest.test_case "flush at branch" `Quick
            test_combine_flushes_at_branch;
          Alcotest.test_case "redefinition drops" `Quick
            test_combine_redefinition_drops;
          Alcotest.test_case "lone increment unchanged" `Quick
            test_combine_lone_increment_unchanged;
        ] );
      ( "classic fixed point",
        [
          Alcotest.test_case "passes idle when converged" `Quick
            test_classic_passes_idle_when_converged;
          Alcotest.test_case "budget exhaustion reported" `Quick
            test_classic_budget_exhaustion_reported;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "semantics" `Quick
            test_schedule_pass_preserves_semantics;
          Alcotest.test_case "not slower" `Quick
            test_schedule_pass_not_slower;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "machine set" `Quick
            test_regalloc_renames_to_machine_set;
          Alcotest.test_case "no spill" `Quick
            test_regalloc_no_spill_semantics;
          Alcotest.test_case "spill" `Quick test_regalloc_spill_semantics;
          Alcotest.test_case "suite with 9 regs" `Quick
            test_regalloc_spills_across_suite;
          Alcotest.test_case "too few" `Quick test_regalloc_too_few;
          Alcotest.test_case "split spill exact on mc88100" `Quick
            test_regalloc_split_spill_exact;
          Alcotest.test_case "frame recorded" `Quick
            test_regalloc_frame_recorded;
        ] );
      ( "sched",
        [
          Alcotest.test_case "dependences" `Quick
            test_sched_respects_dependences;
          Alcotest.test_case "latency hiding" `Quick test_sched_hides_latency;
          Alcotest.test_case "memory ordering" `Quick
            test_sched_memory_ordering;
          Alcotest.test_case "disjoint memory" `Quick
            test_sched_disjoint_mem_can_reorder;
        ] );
      ( "pipeline-sched",
        Alcotest.test_case "pipelined loop identical on the oracle" `Quick
          test_pipeline_sched_matches_oracle
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_pipeline_sched_cert; prop_steady_ii_bounded ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          ([ prop_classic_opts_preserve_semantics; prop_sched_reorder_safe;
             prop_unroll_any_factor ]
          @ prop_pass_semantics) );
    ]
