(* Tests for the dataflow framework instances: liveness, reaching
   definitions, available copies. *)

open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Liveness = Mac_dataflow.Liveness
module Reaching = Mac_dataflow.Reaching
module Copies = Mac_dataflow.Copies
module Congruence = Mac_dataflow.Congruence
module Oracle = Dataflow_oracle

let reg = Reg.make

let func_of ?(params = [ reg 0; reg 1 ]) kinds =
  let f = Func.create ~name:"t" ~params in
  List.iter (Func.append f) kinds;
  f

let regs_of set = List.map Reg.id (Reg.Set.elements set)

(* [r] is live out of block [b] unless every live-out register differs
   from it: membership through the production query. *)
let live_out_mem live b r =
  not (Liveness.for_all_out live b (fun r' -> not (Reg.equal r r')))

let test_liveness_straightline () =
  (* r2 = r0 + 1; r3 = r2 + r1; ret r3 *)
  let f =
    func_of
      [
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 2), Rtl.Reg (reg 1));
        Rtl.Ret (Some (Rtl.Reg (reg 3)));
      ]
  in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg in
  Alcotest.(check (list int)) "live-in is params" [ 0; 1 ]
    (regs_of (Liveness.live_in live 0));
  Alcotest.(check bool) "live-out empty at exit" true
    (Liveness.for_all_out live 0 (fun _ -> false));
  match Liveness.live_after_each live 0 with
  | [ (_, after0); (_, after1); (_, after2) ] ->
    Alcotest.(check (list int)) "after first" [ 1; 2 ] (regs_of after0);
    Alcotest.(check (list int)) "after second" [ 3 ] (regs_of after1);
    Alcotest.(check (list int)) "after ret" [] (regs_of after2)
  | _ -> Alcotest.fail "expected three instructions"

let test_liveness_through_loop () =
  (* the accumulator must stay live around the back edge *)
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 0L);
        Rtl.Label "L";
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Reg (reg 0));
        Rtl.Binop (Rtl.Sub, reg 1, Rtl.Reg (reg 1), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Gt; l = Rtl.Reg (reg 1); r = Rtl.Imm 0L; target = "L" };
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg in
  let loop_block = Option.get (Cfg.block_of_label cfg "L") in
  Alcotest.(check bool) "accumulator live into loop" true
    (Reg.Set.mem (reg 2) (Liveness.live_in live loop_block));
  Alcotest.(check bool) "accumulator live out of loop" true
    (live_out_mem live loop_block (reg 2))

let test_dead_def_not_live () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 42L);
        Rtl.Ret (Some (Rtl.Reg (reg 0)));
      ]
  in
  let cfg = Cfg.build f in
  let live = Liveness.compute cfg in
  match Liveness.live_after_each live 0 with
  | (_, after0) :: _ ->
    Alcotest.(check bool) "dead def not live after" false
      (Reg.Set.mem (reg 2) after0)
  | [] -> Alcotest.fail "empty block"

let test_reaching_defs () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L;
            target = "Lj" };
        Rtl.Move (reg 2, Rtl.Imm 2L);
        Rtl.Label "Lj";
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let r = Oracle.Reaching.compute cfg in
  let join = Option.get (Cfg.block_of_label cfg "Lj") in
  let ret_inst = List.hd (List.rev f.body) in
  let defs =
    Oracle.Reaching.defs_of_reg_reaching r ~block:join ~before:ret_inst (reg 2)
  in
  Alcotest.(check int) "both definitions of r2 reach the join" 2
    (Oracle.IntSet.cardinal defs);
  Alcotest.check_raises "instruction outside the block" Not_found (fun () ->
      ignore
        (Oracle.Reaching.defs_of_reg_reaching r ~block:join
           ~before:(List.hd f.body) (reg 2)));
  (* each reaching def is a Move *)
  Oracle.IntSet.iter
    (fun uid ->
      match List.find_opt (fun (i : Rtl.inst) -> i.uid = uid) f.body with
      | Some { Rtl.kind = Rtl.Move (d, Rtl.Imm _); _ } ->
        Alcotest.(check int) "defines r2" 2 (Reg.id d)
      | _ -> Alcotest.fail "expected immediate moves")
    defs

let test_reaching_params () =
  let f = func_of [ Rtl.Ret (Some (Rtl.Reg (reg 0))) ] in
  let cfg = Cfg.build f in
  let r = Oracle.Reaching.compute cfg in
  let ret_inst = List.hd f.body in
  let defs =
    Oracle.Reaching.defs_of_reg_reaching r ~block:0 ~before:ret_inst (reg 0)
  in
  (* a parameter's pseudo-definition has uid [-1 - Reg.id r] *)
  Alcotest.(check (list int)) "parameter pseudo-def" [ -1 - Reg.id (reg 0) ]
    (Oracle.IntSet.elements defs)

let test_reaching_loop_carried () =
  (* inside a loop both the initialisation and the loop's own definition
     reach the top of the body *)
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 0L);
        Rtl.Label "L";
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 0);
            target = "L" };
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let r = Oracle.Reaching.compute cfg in
  let loop_block = Option.get (Cfg.block_of_label cfg "L") in
  let first_inst =
    List.find
      (fun (i : Mac_rtl.Rtl.inst) ->
        match i.kind with Mac_rtl.Rtl.Binop _ -> true | _ -> false)
      cfg.blocks.(loop_block).insts
  in
  let defs =
    Oracle.Reaching.defs_of_reg_reaching r ~block:loop_block ~before:first_inst
      (reg 2)
  in
  Alcotest.(check int) "init + loop def both reach" 2
    (Oracle.IntSet.cardinal defs)

(* The per-block definedness query: uses no definition reaches, in body
   order. The only definition of r2 is the instruction using it, so that
   use is undefined; the later use of r2 is reached by it. *)
let test_undefined_uses () =
  let f =
    func_of
      [
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 2), Rtl.Reg (reg 4));
        Rtl.Ret (Some (Rtl.Reg (reg 3)));
      ]
  in
  let r = Reaching.compute (Cfg.build f) in
  let got = ref [] in
  Reaching.iter_undefined_uses r ~block:0 (fun i reg ->
      got := (i.Rtl.uid, Reg.id reg) :: !got);
  let uid n = (List.nth f.body n).Rtl.uid in
  Alcotest.(check (list (pair int int)))
    "r2 in its own increment, then r4" [ (uid 0, 2); (uid 1, 4) ]
    (List.rev !got)

(* [Copies.fold_block]'s answers for [regs] before each instruction of
   block [b], snapshotted: its lookup is only valid during the call. *)
let copies_before copies b regs =
  Copies.fold_block copies b ~init:[] ~f:(fun acc i look ->
      let answers = List.map (fun r -> (r, look r)) regs in
      (i, fun r -> List.assoc r answers) :: acc)
  |> List.rev

let test_copies_straightline () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Reg (reg 0));
        Rtl.Move (reg 3, Rtl.Imm 7L);
        Rtl.Binop (Rtl.Add, reg 4, Rtl.Reg (reg 2), Rtl.Reg (reg 3));
        Rtl.Ret (Some (Rtl.Reg (reg 4)));
      ]
  in
  let cfg = Cfg.build f in
  let copies = Copies.compute cfg in
  match copies_before copies 0 [ reg 2; reg 3 ] with
  | [ _; _; (_, before_add); _ ] ->
    (match before_add (reg 2) with
    | Some (Rtl.Reg s) -> Alcotest.(check int) "r2 copies r0" 0 (Reg.id s)
    | _ -> Alcotest.fail "expected copy r2 <- r0");
    (match before_add (reg 3) with
    | Some (Rtl.Imm 7L) -> ()
    | _ -> Alcotest.fail "expected constant copy r3 <- 7")
  | _ -> Alcotest.fail "expected four instructions"

let test_copies_killed_by_redef () =
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Reg (reg 0));
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let copies = Copies.compute cfg in
  match List.rev (copies_before copies 0 [ reg 2 ]) with
  | (_, before_ret) :: _ ->
    Alcotest.(check bool) "copy killed when source redefined" true
      (before_ret (reg 2) = None)
  | [] -> Alcotest.fail "empty"

let test_copies_meet_is_intersection () =
  (* r2 <- r0 on one path only: not available at the join *)
  let f =
    func_of
      [
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L;
            target = "Lj" };
        Rtl.Move (reg 2, Rtl.Reg (reg 0));
        Rtl.Label "Lj";
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let copies = Copies.compute cfg in
  let join = Option.get (Cfg.block_of_label cfg "Lj") in
  match copies_before copies join [ reg 2 ] with
  | (_, before) :: _ ->
    Alcotest.(check bool) "copy not available at join" true
      (before (reg 2) = None)
  | [] -> Alcotest.fail "empty block"

let test_copies_available_at_join_when_on_both_paths () =
  let f =
    func_of
      [
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L;
            target = "Lb" };
        Rtl.Move (reg 2, Rtl.Imm 5L);
        Rtl.Jump "Lj";
        Rtl.Label "Lb";
        Rtl.Move (reg 2, Rtl.Imm 5L);
        Rtl.Label "Lj";
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let copies = Copies.compute cfg in
  let join = Option.get (Cfg.block_of_label cfg "Lj") in
  match copies_before copies join [ reg 2 ] with
  | (_, before) :: _ -> (
    match before (reg 2) with
    | Some (Rtl.Imm 5L) -> ()
    | _ -> Alcotest.fail "constant available from both paths")
  | [] -> Alcotest.fail "empty block"

(* --- the bitvector engine against the set/map oracle --------------- *)

(* Every retained accessor is pinned against the test-side oracle
   ([Dataflow_oracle]: round-robin set/map fixpoints) on randomly
   generated control flow: chains of blocks with random jumps, branches
   and fall-throughs, which naturally produce unreachable blocks (a block
   after a jump nobody targets), self-loops (a block branching to its own
   label) and empty blocks (a label that falls straight through to the
   next). Answers must agree exactly at every block, instruction and
   register. *)

type rand_block = {
  rb_insts : Rtl.kind list;
      (* interior over r0..r7: moves, add/mul/shl/and, loads, stores and
         calls, so the store and call kills and the congruence multiply
         and mask transfers all come up *)
  rb_term : int option option;
      (* None: fall through; Some None: ret; Some (Some k): jump/branch *)
  rb_branchy : bool;  (* branch (falls through) vs jump when targeted *)
}

let gen_func =
  let open QCheck.Gen in
  let nregs = 8 in
  let gen_operand =
    oneof
      [
        map (fun r -> Rtl.Reg (Reg.make r)) (int_bound (nregs - 1));
        map (fun v -> Rtl.Imm (Int64.of_int v)) (int_bound 99);
      ]
  in
  let gen_reg = map Reg.make (int_bound (nregs - 1)) in
  let gen_mem =
    let* base = gen_reg in
    let* disp = int_bound 3 in
    let* width = oneofl [ Width.W8; Width.W32 ] in
    return { Rtl.base; disp = Int64.of_int (4 * disp); width; aligned = true }
  in
  let gen_inst =
    let* dst = int_bound (nregs - 1) in
    let dst = Reg.make dst in
    let binop op = map2 (fun a b -> Rtl.Binop (op, dst, a, b)) gen_operand in
    frequency
      [
        (3, map (fun s -> Rtl.Move (dst, s)) gen_operand);
        (3, binop Rtl.Add gen_operand);
        (1, binop Rtl.Mul gen_operand);
        ( 1,
          binop Rtl.Shl (map (fun k -> Rtl.Imm (Int64.of_int k)) (int_bound 3))
        );
        (1, binop Rtl.And (oneofl [ Rtl.Imm (-8L); Rtl.Imm 7L ]));
        ( 2,
          map2
            (fun src sign -> Rtl.Load { dst; src; sign })
            gen_mem (oneofl [ Rtl.Signed; Rtl.Unsigned ]) );
        (1, map2 (fun src d -> Rtl.Store { src; dst = d }) gen_operand gen_mem);
        ( 1,
          map2
            (fun with_dst arg ->
              Rtl.Call
                { dst = (if with_dst then Some dst else None); func = "g";
                  args = [ arg ] })
            bool gen_operand );
      ]
  in
  let gen_block nblocks =
    let* rb_insts = list_size (int_bound 3) gen_inst in
    let* rb_term =
      frequency
        [
          (2, return None); (* fall through — empty-block material *)
          (1, return (Some None)); (* ret *)
          (3, map (fun k -> Some (Some k)) (int_bound (nblocks - 1)));
        ]
    in
    let* rb_branchy = bool in
    return { rb_insts; rb_term; rb_branchy }
  in
  let* nblocks = int_range 1 6 in
  let* blocks = list_repeat nblocks (gen_block nblocks) in
  return (nblocks, blocks)

let func_of_rand (nblocks, blocks) =
  let f = Func.create ~name:"rand" ~params:[ Reg.make 0; Reg.make 1 ] in
  List.iteri
    (fun bi rb ->
      Func.append f (Rtl.Label (Printf.sprintf "L%d" bi));
      List.iter (Func.append f) rb.rb_insts;
      match rb.rb_term with
      | None -> () (* fall through (or off the end: patched below) *)
      | Some None -> Func.append f (Rtl.Ret (Some (Rtl.Reg (Reg.make 0))))
      | Some (Some k) ->
        let target = Printf.sprintf "L%d" (k mod nblocks) in
        if rb.rb_branchy then
          Func.append f
            (Rtl.Branch
               { cmp = Rtl.Gt; l = Rtl.Reg (Reg.make 1); r = Rtl.Imm 0L;
                 target })
        else Func.append f (Rtl.Jump target))
    blocks;
  (* The body must not fall off the end. *)
  (match List.rev f.Func.body with
  | { Rtl.kind = Rtl.Ret _ | Rtl.Jump _; _ } :: _ -> ()
  | _ -> Func.append f (Rtl.Ret (Some (Rtl.Reg (Reg.make 0)))));
  f

let arbitrary_func =
  QCheck.make
    ~print:(fun rand -> Fmt.str "%a" Func.pp (func_of_rand rand))
    gen_func

let all_regs f = List.init f.Func.next_reg Reg.make

(* [each] pairs a block's instructions with per-register answers; they
   must visit the oracle's instructions in order and agree on every
   register. *)
let check_each ~what ~b ~regs ~expect oracle each =
  if List.length oracle <> List.length each then
    QCheck.Test.fail_reportf "%s visits a different count at block %d" what b;
  List.iter2
    (fun (i, o) (i', answer) ->
      if i.Rtl.uid <> i'.Rtl.uid then
        QCheck.Test.fail_reportf "%s order differs at block %d" what b;
      List.iter
        (fun r ->
          if expect o r <> answer r then
            QCheck.Test.fail_reportf "%s differs at block %d uid %d reg %d"
              what b i.Rtl.uid (Reg.id r))
        regs)
    oracle each

let check_liveness_equal f cfg =
  let live = Liveness.compute cfg and oracle = Oracle.Liveness.compute cfg in
  let regs = all_regs f in
  Array.iteri
    (fun b _ ->
      if
        not
          (Reg.Set.equal (Liveness.live_in live b)
             (Oracle.Liveness.live_in oracle b))
      then QCheck.Test.fail_reportf "live_in differs at block %d" b;
      List.iter
        (fun r ->
          if
            live_out_mem live b r
            <> Reg.Set.mem r (Oracle.Liveness.live_out oracle b)
          then QCheck.Test.fail_reportf "live_out differs at block %d" b)
        regs;
      let expect = Oracle.Liveness.live_after_each oracle b in
      check_each ~what:"live_after_each" ~b ~regs ~expect:(Fun.flip Reg.Set.mem)
        expect
        (List.map
           (fun (i, set) -> (i, Fun.flip Reg.Set.mem set))
           (Liveness.live_after_each live b));
      (* the query is only valid during the call: snapshot its answers;
         reverse visit order, so consing builds the forward order *)
      let folded =
        Liveness.fold_live_after live b ~init:[] ~f:(fun acc i q ->
            let set = Reg.Set.of_list (List.filter q regs) in
            (i, Fun.flip Reg.Set.mem set) :: acc)
      in
      check_each ~what:"fold_live_after" ~b ~regs ~expect:(Fun.flip Reg.Set.mem)
        expect folded)
    cfg.Cfg.blocks

(* The production engine only answers "does any definition reach this
   use"; the oracle's reaching set for the use must be empty exactly when
   it says no, use by use in body order. *)
let check_reaching_equal _f cfg =
  let reach = Reaching.compute cfg and oracle = Oracle.Reaching.compute cfg in
  Array.iteri
    (fun b (blk : Cfg.block) ->
      let want =
        List.concat_map
          (fun (i : Rtl.inst) ->
            List.filter_map
              (fun r ->
                if
                  Oracle.IntSet.is_empty
                    (Oracle.Reaching.defs_of_reg_reaching oracle ~block:b
                       ~before:i r)
                then Some (i.uid, Reg.id r)
                else None)
              (Rtl.uses i.kind))
          blk.Cfg.insts
      in
      let got = ref [] in
      Reaching.iter_undefined_uses reach ~block:b (fun i r ->
          got := (i.uid, Reg.id r) :: !got);
      if List.rev !got <> want then
        QCheck.Test.fail_reportf "undefined uses differ at block %d" b)
    cfg.Cfg.blocks

(* The solver alone: the copies available on entry to each block, read
   before its first instruction. *)
let check_copies_equal f cfg =
  let copies = Copies.compute cfg and oracle = Oracle.Copies.compute cfg in
  let regs = all_regs f in
  let first = function [] -> [] | x :: _ -> [ x ] in
  Array.iteri
    (fun b _ ->
      check_each ~what:"block-entry copies" ~b ~regs
        ~expect:(fun map r -> Reg.Map.find_opt r map)
        (first (Oracle.Copies.copies_before_each oracle b))
        (first (copies_before copies b regs)))
    cfg.Cfg.blocks

(* The remaining production walks against the oracle's: available
   expressions, congruence, dead code's faint sweep, and the in-place
   copies walk at every instruction. *)
let check_avail_equal _f cfg =
  let avail = Mac_dataflow.Avail.compute cfg in
  let oracle = Oracle.Avail.facts_in cfg in
  Array.iteri
    (fun b want ->
      let got =
        List.map
          (fun (d, k) -> (Reg.id d, k))
          (Mac_dataflow.Avail.facts_in avail b)
      in
      if got <> Oracle.Avail.FactSet.elements want then
        QCheck.Test.fail_reportf "available facts differ at block %d" b)
    oracle

let check_congruence_equal f cfg =
  let regs = all_regs f in
  let agree st want = List.for_all (fun r ->
      Congruence.value_equal (Congruence.value_of st r) (want r)) regs
  in
  List.iter
    (fun consts ->
      let t = Congruence.solve ~consts cfg in
      let ins, outs = Oracle.Congruence.solve ~consts cfg in
      Array.iteri
        (fun b _ ->
          if not (agree (Congruence.block_in t b) ins.(b)) then
            QCheck.Test.fail_reportf "congruence in-state differs at block %d" b;
          if not (agree (Congruence.block_out t b) outs.(b)) then
            QCheck.Test.fail_reportf "congruence out-state differs at block %d"
              b)
        cfg.Cfg.blocks)
    [ []; [ (reg 1, 16L) ] ]

let check_faint_equal f _cfg =
  let copy () = Func.create ~name:f.Func.name ~params:f.Func.params in
  let f1 = copy () and f2 = copy () in
  Func.set_body f1 f.Func.body;
  Func.set_body f2 f.Func.body;
  let got = Mac_opt.Dce.remove_faint f1 and want = Oracle.remove_faint f2 in
  let uids (g : Func.t) = List.map (fun (i : Rtl.inst) -> i.uid) g.body in
  if got <> want || uids f1 <> uids f2 then
    QCheck.Test.fail_reportf "faint sweep differs (removed %b vs %b)" got want

let check_copies_fold_equal f cfg =
  let copies = Copies.compute cfg and oracle = Oracle.Copies.compute cfg in
  let regs = all_regs f in
  Array.iteri
    (fun b _ ->
      check_each ~what:"fold_block" ~b ~regs
        ~expect:(fun map r -> Reg.Map.find_opt r map)
        (Oracle.Copies.copies_before_each oracle b)
        (copies_before copies b regs))
    cfg.Cfg.blocks

let engine_equivalence_tests =
  let mk name check =
    QCheck.Test.make ~count:300 ~name arbitrary_func (fun rand ->
        let f = func_of_rand rand in
        let cfg = Cfg.build f in
        check f cfg;
        true)
  in
  [
    mk "liveness: bitvec = reference on random CFGs" check_liveness_equal;
    mk "reaching: bitvec = reference on random CFGs" check_reaching_equal;
    mk "copies: bitvec = reference on random CFGs" check_copies_equal;
    mk "avail: bitvec = reference on random CFGs" check_avail_equal;
    mk "congruence: dirty sweeps = round robin on random CFGs"
      check_congruence_equal;
    mk "dce: faint sweep = reference on random CFGs" check_faint_equal;
    mk "copies: fold_block = reference on random CFGs"
      check_copies_fold_equal;
  ]

(* --- the analysis manager ------------------------------------------- *)

module Analysis = Mac_dataflow.Analysis

let manager_func () =
  func_of
    [
      Rtl.Move (reg 2, Rtl.Imm 0L);
      Rtl.Label "L";
      Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Reg (reg 0));
      Rtl.Binop (Rtl.Sub, reg 1, Rtl.Reg (reg 1), Rtl.Imm 1L);
      Rtl.Branch
        { cmp = Rtl.Gt; l = Rtl.Reg (reg 1); r = Rtl.Imm 0L; target = "L" };
      Rtl.Ret (Some (Rtl.Reg (reg 2)));
    ]

let test_manager_memoizes () =
  let f = manager_func () in
  let am = Analysis.create f in
  Alcotest.(check bool) "cfg memoised" true
    (Analysis.cfg am == Analysis.cfg am);
  Alcotest.(check bool) "liveness memoised" true
    (Analysis.liveness am == Analysis.liveness am);
  Alcotest.(check bool) "loops memoised" true
    (Analysis.loops am == Analysis.loops am)

let test_manager_invalidate_drops_and_keeps () =
  let f = manager_func () in
  let am = Analysis.create f in
  let cfg0 = Analysis.cfg am in
  let loops0 = Analysis.loops am in
  let live0 = Analysis.liveness am in
  (* an instruction-local rewrite: CFG facts die, Dom/Loops survive *)
  Analysis.invalidate am ~preserves:[ Analysis.Dom; Analysis.Loops ];
  Alcotest.(check bool) "loops survive" true (loops0 == Analysis.loops am);
  Alcotest.(check bool) "cfg recomputed" true (cfg0 != Analysis.cfg am);
  Alcotest.(check bool) "liveness recomputed" true
    (live0 != Analysis.liveness am);
  (* dependency closure: liveness cannot survive without the CFG *)
  let live1 = Analysis.liveness am in
  Analysis.invalidate am ~preserves:[ Analysis.Live ];
  Alcotest.(check bool) "liveness dropped without Cfg" true
    (live1 != Analysis.liveness am);
  let live2 = Analysis.liveness am in
  Analysis.invalidate am ~preserves:[ Analysis.Cfg; Analysis.Live ];
  Alcotest.(check bool) "liveness kept alongside Cfg" true
    (live2 == Analysis.liveness am)

let test_manager_coherence () =
  let f = manager_func () in
  let am = Analysis.create f in
  ignore (Analysis.cfg am);
  Alcotest.(check bool) "fresh cache is coherent" true
    (Analysis.coherent am = Ok ());
  (* a pass rewrites an instruction but lies about what it preserved *)
  (match f.Func.body with
  | first :: rest ->
    Func.set_body f ({ first with Rtl.kind = Rtl.Move (reg 2, Rtl.Imm 7L) } :: rest)
  | [] -> assert false);
  Alcotest.(check bool) "stale cache detected" true
    (match Analysis.coherent am with Error _ -> true | Ok () -> false)

let manager_tests =
  [
    Alcotest.test_case "memoizes facts" `Quick test_manager_memoizes;
    Alcotest.test_case "invalidate honours preserves + closure" `Quick
      test_manager_invalidate_drops_and_keeps;
    Alcotest.test_case "coherence check" `Quick test_manager_coherence;
  ]

(* --- congruence ----------------------------------------------------- *)

let value = Alcotest.testable Congruence.pp_value Congruence.value_equal

let test_congruence_loop_counter () =
  (* i = 0; L: i += 8; if (r0 > i) goto L — at the header i ≡ 0 (mod 8)
     but its low 4 bits are unknown *)
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 0L);
        Rtl.Label "L";
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 8L);
        Rtl.Branch
          { cmp = Rtl.Gt; l = Rtl.Reg (reg 0); r = Rtl.Reg (reg 2);
            target = "L" };
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let t = Congruence.solve cfg in
  let header = Option.get (Cfg.block_of_label cfg "L") in
  let i = Congruence.value_of (Congruence.block_in t header) (reg 2) in
  Alcotest.(check (option int64)) "i mod 8 = 0" (Some 0L)
    (Congruence.residue i ~bits:3);
  Alcotest.(check (option int64)) "i mod 16 unknown" None
    (Congruence.residue i ~bits:4)

let test_congruence_affine_and_scaled () =
  (* r2 = r0 + 4 stays exact; r3 = r1 * 8 is 0 mod 8 whatever r1 is *)
  let f =
    func_of
      [
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 0), Rtl.Imm 4L);
        Rtl.Binop (Rtl.Mul, reg 3, Rtl.Reg (reg 1), Rtl.Imm 8L);
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let t = Congruence.solve cfg in
  let out = Congruence.block_out t 0 in
  Alcotest.(check (option (pair int int64))) "r2 = σ(r0) + 4"
    (Some (0, 4L))
    (Option.map
       (fun (r, off) -> (Reg.id r, off))
       (Congruence.exact_affine (Congruence.value_of out (reg 2))));
  Alcotest.(check (option int64)) "r3 mod 8 = 0" (Some 0L)
    (Congruence.residue (Congruence.value_of out (reg 3)) ~bits:3)

let test_congruence_join_and_implies () =
  (* r2 is 4 on one path and 12 on the other: 4 mod 8 on both *)
  let f =
    func_of
      [
        Rtl.Move (reg 2, Rtl.Imm 4L);
        Rtl.Branch
          { cmp = Rtl.Gt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L; target = "J" };
        Rtl.Move (reg 2, Rtl.Imm 12L);
        Rtl.Label "J";
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  let cfg = Cfg.build f in
  let t = Congruence.solve cfg in
  let j = Option.get (Cfg.block_of_label cfg "J") in
  let v = Congruence.value_of (Congruence.block_in t j) (reg 2) in
  Alcotest.(check (option int64)) "r2 mod 8 = 4" (Some 4L)
    (Congruence.residue v ~bits:3);
  Alcotest.(check bool) "12 implies the join" true
    (Congruence.implies ~actual:(Congruence.const 12L) ~claim:v);
  Alcotest.(check bool) "join does not imply 12" false
    (Congruence.implies ~actual:v ~claim:(Congruence.const 12L))

let test_congruence_consts_seed () =
  let f = func_of [ Rtl.Ret (Some (Rtl.Reg (reg 1))) ] in
  let cfg = Cfg.build f in
  let t = Congruence.solve ~consts:[ (reg 1, 16L) ] cfg in
  Alcotest.(check value) "seeded entry collapses to the constant"
    (Congruence.const 16L)
    (Congruence.value_of (Congruence.block_in t 0) (reg 1))

let congruence_tests =
  [
    Alcotest.test_case "loop counter mod step" `Quick
      test_congruence_loop_counter;
    Alcotest.test_case "affine and scaled" `Quick
      test_congruence_affine_and_scaled;
    Alcotest.test_case "join and implies" `Quick
      test_congruence_join_and_implies;
    Alcotest.test_case "seeded constants" `Quick test_congruence_consts_seed;
  ]

let () =
  Alcotest.run "dataflow"
    [
      ( "liveness",
        [
          Alcotest.test_case "straight line" `Quick test_liveness_straightline;
          Alcotest.test_case "through loop" `Quick test_liveness_through_loop;
          Alcotest.test_case "dead def" `Quick test_dead_def_not_live;
        ] );
      ( "reaching",
        [
          Alcotest.test_case "two defs reach join" `Quick test_reaching_defs;
          Alcotest.test_case "params" `Quick test_reaching_params;
          Alcotest.test_case "loop carried" `Quick
            test_reaching_loop_carried;
          Alcotest.test_case "undefined uses" `Quick test_undefined_uses;
        ] );
      ( "copies",
        [
          Alcotest.test_case "straight line" `Quick test_copies_straightline;
          Alcotest.test_case "killed by redef" `Quick
            test_copies_killed_by_redef;
          Alcotest.test_case "meet is intersection" `Quick
            test_copies_meet_is_intersection;
          Alcotest.test_case "same copy on both paths" `Quick
            test_copies_available_at_join_when_on_both_paths;
        ] );
      ( "engine equivalence",
        List.map QCheck_alcotest.to_alcotest engine_equivalence_tests );
      ("analysis manager", manager_tests);
      ("congruence", congruence_tests);
    ]
