open Mac_rtl

(* Available expressions on the must-variant of the packed gen/kill
   solver. Each distinct fact [(d, key)] some instruction establishes
   gets one bit, numbered in [compare] order so that a block's entry
   facts come out sorted. A fact dies when its register or any register
   its key reads is redefined; a store kills every load fact and a call
   kills everything. Blocks start at the universe of facts rather than
   Top, so a block no path from the entry reaches settles at the
   greatest fixed point and still removes the facts it kills from the
   entries of the reachable blocks it flows into. *)

type key =
  | Move of Rtl.operand
  | Bin of Rtl.binop * Rtl.operand * Rtl.operand
  | Un of Rtl.unop * Rtl.operand
  | Load of Rtl.mem * Rtl.signedness
  | Ext of Reg.t * Rtl.operand * Width.t * Rtl.signedness

type t = { facts : (Reg.t * key) array; entry : Bitv.t array }

let operand_regs = function Rtl.Reg r -> [ r ] | Rtl.Imm _ -> []

let key_regs = function
  | Move o | Un (_, o) -> operand_regs o
  | Bin (_, a, b) -> operand_regs a @ operand_regs b
  | Load (m, _) -> [ m.Rtl.base ]
  | Ext (src, pos, _, _) -> src :: operand_regs pos

let fact_of_inst (i : Rtl.inst) =
  let fact d key =
    if List.exists (Reg.equal d) (key_regs key) then None else Some (d, key)
  in
  match i.kind with
  | Rtl.Move (d, o) -> fact d (Move o)
  | Rtl.Binop (op, d, a, b) -> fact d (Bin (op, a, b))
  | Rtl.Unop (op, d, a) -> fact d (Un (op, a))
  | Rtl.Load { dst; src; sign } -> fact dst (Load (src, sign))
  | Rtl.Extract { dst; src; pos; width; sign } ->
    fact dst (Ext (src, pos, width, sign))
  | _ -> None

let compute (cfg : Mac_cfg.Cfg.t) =
  (* number the distinct facts as first seen, then renumber them sorted *)
  let seen = Hashtbl.create 64 and rev_facts = ref [] in
  let first_ids =
    Array.map
      (fun (b : Mac_cfg.Cfg.block) ->
        List.map
          (fun i ->
            match fact_of_inst i with
            | None -> -1
            | Some f -> (
              match Hashtbl.find_opt seen f with
              | Some id -> id
              | None ->
                let id = Hashtbl.length seen in
                Hashtbl.add seen f id;
                rev_facts := (f, id) :: !rev_facts;
                id))
          b.insts)
      cfg.blocks
  in
  let sorted =
    Array.of_list (List.sort (fun (f, _) (g, _) -> compare f g) !rev_facts)
  in
  let facts = Array.map fst sorted in
  let nfacts = Array.length facts in
  let index = Array.make nfacts 0 in
  Array.iteri (fun fi (_, id) -> index.(id) <- fi) sorted;
  (* per register: the facts that mention it; plus the load facts *)
  let facts_of_reg = Reg.Tbl.create 16 and loads = Bitv.create nfacts in
  let mark r fi =
    let m =
      match Reg.Tbl.find_opt facts_of_reg r with
      | Some m -> m
      | None ->
        let m = Bitv.create nfacts in
        Reg.Tbl.replace facts_of_reg r m;
        m
    in
    Bitv.set m fi
  in
  Array.iteri
    (fun fi (d, key) ->
      mark d fi;
      List.iter (fun r -> mark r fi) (key_regs key);
      match key with Load _ -> Bitv.set loads fi | _ -> ())
    facts;
  let all = Bitv.full nfacts in
  let n = Array.length cfg.blocks in
  let gen = Array.init n (fun _ -> Bitv.create nfacts)
  and kill = Array.init n (fun _ -> Bitv.create nfacts) in
  (* composing the block's instructions:
     gen := g ∪ (gen − k), kill := kill ∪ k *)
  let kill_with b m =
    ignore (Bitv.diff_into ~into:gen.(b) m);
    ignore (Bitv.union_into ~into:kill.(b) m)
  in
  Array.iteri
    (fun b (blk : Mac_cfg.Cfg.block) ->
      List.iter2
        (fun (i : Rtl.inst) id ->
          (match i.kind with
          | Rtl.Call _ -> kill_with b all
          | Rtl.Store _ -> kill_with b loads
          | _ -> ());
          List.iter
            (fun r ->
              match Reg.Tbl.find_opt facts_of_reg r with
              | Some m -> kill_with b m
              | None -> ())
            (Rtl.defs i.kind);
          if id >= 0 then Bitv.set gen.(b) index.(id))
        blk.insts first_ids.(b))
    cfg.blocks;
  let sol =
    Dataflow.solve_bits ~universe:all cfg ~direction:Dataflow.Forward
      ~meet:Dataflow.Inter ~gen ~kill ~boundary:(Bitv.create nfacts)
  in
  { facts; entry = Array.map Option.get sol.Dataflow.inb }

let facts_in t b =
  List.rev (Bitv.fold_set (fun fi acc -> t.facts.(fi) :: acc) t.entry.(b) [])
