(* Tests for CFG construction, dominators and natural-loop detection. *)

open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Dom = Mac_cfg.Dom
module Loop = Mac_cfg.Loop

let reg = Reg.make

(* Build a function from a list of kinds. *)
let func_of kinds =
  let f = Func.create ~name:"t" ~params:[ reg 0; reg 1 ] in
  List.iter (Func.append f) kinds;
  f

let branch ?(cmp = Rtl.Lt) target =
  Rtl.Branch { cmp; l = Rtl.Reg (reg 0); r = Rtl.Reg (reg 1); target }

(* A diamond: entry -> (then | else) -> join -> ret *)
let diamond () =
  func_of
    [
      Rtl.Move (reg 2, Rtl.Imm 0L);
      branch "Lelse";
      Rtl.Move (reg 2, Rtl.Imm 1L);
      Rtl.Jump "Ljoin";
      Rtl.Label "Lelse";
      Rtl.Move (reg 2, Rtl.Imm 2L);
      Rtl.Label "Ljoin";
      Rtl.Ret (Some (Rtl.Reg (reg 2)));
    ]

(* The canonical lowered loop shape: guard; single-block body; exit. *)
let simple_loop () =
  func_of
    [
      Rtl.Move (reg 2, Rtl.Imm 0L);
      Rtl.Branch
        { cmp = Rtl.Ge; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 1);
          target = "Lexit" };
      Rtl.Label "Lhead";
      Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 3), Rtl.Reg (reg 2));
      Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
      Rtl.Branch
        { cmp = Rtl.Lt; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 1);
          target = "Lhead" };
      Rtl.Label "Lexit";
      Rtl.Ret (Some (Rtl.Reg (reg 3)));
    ]

let test_blocks_diamond () =
  let cfg = Cfg.build (diamond ()) in
  Alcotest.(check int) "block count" 4 (Array.length cfg.blocks);
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ]
    (List.sort compare cfg.succ.(0));
  Alcotest.(check (list int)) "then -> join" [ 3 ] cfg.succ.(1);
  Alcotest.(check (list int)) "else -> join" [ 3 ] cfg.succ.(2);
  Alcotest.(check (list int)) "join preds" [ 1; 2 ]
    (List.sort compare cfg.pred.(3));
  Alcotest.(check (list int)) "ret has no succs" [] cfg.succ.(3)

let test_block_of_label () =
  let cfg = Cfg.build (diamond ()) in
  Alcotest.(check (option int)) "Lelse" (Some 2)
    (Cfg.block_of_label cfg "Lelse");
  Alcotest.(check (option int)) "missing" None (Cfg.block_of_label cfg "Lx")

let test_fallthrough_after_branch () =
  let cfg = Cfg.build (simple_loop ()) in
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ]
    (List.sort compare cfg.succ.(0));
  Alcotest.(check (list int)) "loop succs" [ 1; 2 ]
    (List.sort compare cfg.succ.(1))

let test_reachable () =
  let f =
    func_of
      [
        Rtl.Jump "Lend";
        Rtl.Label "Ldead";
        Rtl.Move (reg 2, Rtl.Imm 1L);
        Rtl.Label "Lend";
        Rtl.Ret None;
      ]
  in
  let cfg = Cfg.build f in
  let r = Cfg.reachable cfg in
  Alcotest.(check bool) "entry reachable" true r.(0);
  let dead = Option.get (Cfg.block_of_label cfg "Ldead") in
  Alcotest.(check bool) "dead block unreachable" false r.(dead)

let test_dominators_diamond () =
  let cfg = Cfg.build (diamond ()) in
  let dom = Dom.compute cfg in
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all (fun b -> Dom.dominates dom 0 b) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "then does not dominate join" false
    (Dom.dominates dom 1 3);
  Alcotest.(check bool) "reflexive" true (Dom.dominates dom 2 2);
  Alcotest.(check (list int)) "join dominated by entry and itself" [ 0; 3 ]
    (List.filter (fun a -> Dom.dominates dom a 3) [ 0; 1; 2; 3 ]);
  Alcotest.(check (list int)) "entry dominated by itself only" [ 0 ]
    (List.filter (fun a -> Dom.dominates dom a 0) [ 0; 1; 2; 3 ])

let test_dominators_loop () =
  let cfg = Cfg.build (simple_loop ()) in
  let dom = Dom.compute cfg in
  Alcotest.(check bool) "header dominated by entry" true
    (Dom.dominates dom 0 1);
  Alcotest.(check bool) "exit dominated by entry, not header" true
    (Dom.dominates dom 0 2 && not (Dom.dominates dom 1 2));
  Alcotest.(check (list int)) "dominators of loop" [ 0; 1 ]
    (List.filter (fun a -> Dom.dominates dom a 1) [ 0; 1; 2 ])

let test_natural_loop () =
  let cfg = Cfg.build (simple_loop ()) in
  let dom = Dom.compute cfg in
  match Loop.natural_loops cfg dom with
  | [ l ] ->
    Alcotest.(check int) "header" 1 l.header;
    Alcotest.(check (list int)) "latches" [ 1 ] l.latches;
    Alcotest.(check bool) "simple" true (Loop.simple_of cfg l <> None);
    Alcotest.(check (option int)) "preheader" (Some 0) l.preheader;
    (match Loop.simple_of cfg l with
    | Some s ->
      Alcotest.(check string) "label" "Lhead" s.header_label;
      Alcotest.(check int) "body length (sans label/branch)" 2
        (List.length s.body)
    | None -> Alcotest.fail "expected a simple view")
  | ls -> Alcotest.failf "expected exactly one loop, got %d" (List.length ls)

let test_nested_loop_not_simple () =
  let f =
    func_of
      [
        Rtl.Label "Louter";
        Rtl.Move (reg 2, Rtl.Imm 0L);
        Rtl.Label "Linner";
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 2); r = Rtl.Imm 10L;
            target = "Linner" };
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 3), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 3); r = Rtl.Reg (reg 1);
            target = "Louter" };
        Rtl.Ret None;
      ]
  in
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  let loops = Loop.natural_loops cfg dom in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let simple, non_simple =
    List.partition (fun l -> Loop.simple_of cfg l <> None) loops
  in
  Alcotest.(check int) "inner is simple" 1 (List.length simple);
  Alcotest.(check int) "outer is not" 1 (List.length non_simple)

let test_loop_with_break_not_simple () =
  let f =
    func_of
      [
        Rtl.Label "Lhead";
        Rtl.Branch
          { cmp = Rtl.Eq; l = Rtl.Reg (reg 0); r = Rtl.Imm 9L;
            target = "Lout" };
        Rtl.Binop (Rtl.Add, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 0); r = Rtl.Reg (reg 1);
            target = "Lhead" };
        Rtl.Label "Lout";
        Rtl.Ret None;
      ]
  in
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  match Loop.natural_loops cfg dom with
  | [ l ] ->
    Alcotest.(check bool) "not simple" true (Loop.simple_of cfg l = None)
  | _ -> Alcotest.fail "expected one loop"

(* Property: dominance is a partial order on random branchy functions. *)
let random_func =
  let open QCheck.Gen in
  let gen =
    sized_size (int_range 3 10) (fun n ->
        let* targets = list_repeat n (int_bound (max 0 (n - 1))) in
        return
          (let f = Func.create ~name:"r" ~params:[ reg 0; reg 1 ] in
           List.iteri
             (fun i t ->
               Func.append f (Rtl.Label (Printf.sprintf "B%d" i));
               Func.append f
                 (Rtl.Branch
                    { cmp = Rtl.Lt; l = Rtl.Reg (reg 0);
                      r = Rtl.Reg (reg 1);
                      target = Printf.sprintf "B%d" t }))
             targets;
           Func.append f (Rtl.Ret None);
           f))
  in
  QCheck.make gen

let prop_dominance_partial_order =
  QCheck.Test.make ~name:"dominance is transitive and antisymmetric"
    ~count:100 random_func (fun f ->
      let cfg = Cfg.build f in
      let dom = Dom.compute cfg in
      let n = Array.length cfg.blocks in
      let reach = Cfg.reachable cfg in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if reach.(a) && reach.(b) && a <> b then begin
            if Dom.dominates dom a b && Dom.dominates dom b a then
              ok := false;
            for c = 0 to n - 1 do
              if
                reach.(c) && Dom.dominates dom a b && Dom.dominates dom b c
                && not (Dom.dominates dom a c)
              then ok := false
            done
          end
        done
      done;
      !ok)

let prop_loops_contain_header_and_latches =
  QCheck.Test.make ~name:"every loop contains its header and latches"
    ~count:100 random_func (fun f ->
      let cfg = Cfg.build f in
      let dom = Dom.compute cfg in
      List.for_all
        (fun (l : Loop.t) ->
          Loop.IntSet.mem l.header l.blocks
          && List.for_all (fun x -> Loop.IntSet.mem x l.blocks) l.latches)
        (Loop.natural_loops cfg dom))

let prop_blocks_partition_body =
  QCheck.Test.make ~name:"blocks partition the instruction list" ~count:100
    random_func (fun f ->
      let cfg = Cfg.build f in
      let flattened =
        Array.to_list cfg.blocks
        |> List.concat_map (fun (b : Cfg.block) -> b.insts)
        |> List.map (fun (i : Rtl.inst) -> i.uid)
      in
      flattened = List.map (fun (i : Rtl.inst) -> i.uid) f.body)

let () =
  Alcotest.run "cfg"
    [
      ( "build",
        [
          Alcotest.test_case "diamond blocks" `Quick test_blocks_diamond;
          Alcotest.test_case "block_of_label" `Quick test_block_of_label;
          Alcotest.test_case "fallthrough" `Quick
            test_fallthrough_after_branch;
          Alcotest.test_case "reachable" `Quick test_reachable;
        ] );
      ( "dom",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "loop" `Quick test_dominators_loop;
        ] );
      ( "loops",
        [
          Alcotest.test_case "natural loop" `Quick test_natural_loop;
          Alcotest.test_case "nested" `Quick test_nested_loop_not_simple;
          Alcotest.test_case "break exits" `Quick
            test_loop_with_break_not_simple;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dominance_partial_order;
            prop_loops_contain_header_and_latches;
            prop_blocks_partition_body;
          ] );
    ]
