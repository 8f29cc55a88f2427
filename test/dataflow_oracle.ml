(* The set/map oracle the packed-bitvector analyses of lib/dataflow are
   pinned against: each analysis is iterated to its fixpoint on
   functional sets and maps by a round-robin solver over block indices,
   with the textbook per-instruction transfers. Nothing here is fast or
   shared with the production engine, which is the point. *)

open Mac_rtl
module Cfg = Mac_cfg.Cfg
module IntSet = Set.Make (Int)

open Mac_dataflow.Dataflow

(* Round-robin iteration from [top] to the fixpoint. [transfer b v] maps
   the value flowing into block [b] (its entry for forward analyses, its
   exit for backward ones) across the block. The boundary value flows
   into the entry block (forward) or every block without successors
   (backward), and into any block without predecessors in flow order. *)
let solve (cfg : Cfg.t) ~direction ~boundary ~top ~meet ~equal ~transfer =
  let n = Array.length cfg.blocks in
  let inb = Array.make n top and outb = Array.make n top in
  let preds, is_boundary =
    match direction with
    | Forward -> (cfg.pred, fun b -> b = 0)
    | Backward -> (cfg.succ, fun b -> cfg.succ.(b) = [])
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      let flow_in =
        let from_edges =
          List.fold_left
            (fun acc p ->
              let v =
                match direction with Forward -> outb.(p) | Backward -> inb.(p)
              in
              match acc with None -> Some v | Some a -> Some (meet a v))
            None preds.(b)
        in
        match (from_edges, is_boundary b) with
        | Some v, true -> meet v boundary
        | Some v, false -> v
        | None, _ -> boundary
      in
      let flow_out = transfer b flow_in in
      let cur_in, cur_out =
        match direction with
        | Forward -> (flow_in, flow_out)
        | Backward -> (flow_out, flow_in)
      in
      if not (equal cur_in inb.(b) && equal cur_out outb.(b)) then begin
        inb.(b) <- cur_in;
        outb.(b) <- cur_out;
        changed := true
      end
    done
  done;
  { inb; outb }

(* Live registers: backward, may, over [Reg.Set]. *)
module Liveness = struct
  type t = { cfg : Cfg.t; sol : Reg.Set.t solution }

  let transfer_inst (i : Rtl.inst) live_after =
    let without_defs =
      List.fold_left (fun acc r -> Reg.Set.remove r acc) live_after
        (Rtl.defs i.kind)
    in
    List.fold_left (fun acc r -> Reg.Set.add r acc) without_defs
      (Rtl.uses i.kind)

  let compute (cfg : Cfg.t) =
    let transfer b live_out =
      List.fold_right transfer_inst cfg.blocks.(b).insts live_out
    in
    let sol =
      solve cfg ~direction:Backward ~boundary:Reg.Set.empty
        ~top:Reg.Set.empty ~meet:Reg.Set.union ~equal:Reg.Set.equal
        ~transfer
    in
    { cfg; sol }

  let live_in t b = t.sol.inb.(b)
  let live_out t b = t.sol.outb.(b)

  let live_after_each t b =
    let _, acc =
      List.fold_right
        (fun i (live, acc) -> (transfer_inst i live, (i, live) :: acc))
        t.cfg.blocks.(b).insts
        (t.sol.outb.(b), [])
    in
    acc
end

(* Reaching definitions: forward, may, over uid sets; parameters are
   pseudo-definitions with uid [-1 - Reg.id r]. *)
module Reaching = struct
  type t = {
    cfg : Cfg.t;
    sol : IntSet.t solution;
    defs_of_reg : IntSet.t Reg.Map.t;  (* every definition uid per register *)
  }

  let param_uid r = -1 - Reg.id r
  let defs t r = Option.value (Reg.Map.find_opt r t) ~default:IntSet.empty

  let transfer_inst defs_of_reg (i : Rtl.inst) reach =
    List.fold_left
      (fun reach r -> IntSet.add i.uid (IntSet.diff reach (defs defs_of_reg r)))
      reach (Rtl.defs i.kind)

  let compute (cfg : Cfg.t) =
    let add_def uid m r = Reg.Map.add r (IntSet.add uid (defs m r)) m in
    let defs_of_reg =
      List.fold_left
        (fun m r -> add_def (param_uid r) m r)
        Reg.Map.empty cfg.func.params
    in
    let defs_of_reg =
      Array.fold_left
        (fun m (b : Cfg.block) ->
          List.fold_left
            (fun m (i : Rtl.inst) ->
              List.fold_left (add_def i.uid) m (Rtl.defs i.kind))
            m b.insts)
        defs_of_reg cfg.blocks
    in
    let boundary = IntSet.of_list (List.map param_uid cfg.func.params) in
    let transfer b reach =
      List.fold_left
        (fun reach i -> transfer_inst defs_of_reg i reach)
        reach cfg.blocks.(b).insts
    in
    let sol =
      solve cfg ~direction:Forward ~boundary ~top:IntSet.empty
        ~meet:IntSet.union ~equal:IntSet.equal ~transfer
    in
    { cfg; sol; defs_of_reg }

  let defs_of_reg_reaching t ~block ~before r =
    let rec walk reach = function
      | [] -> raise Not_found
      | (i : Rtl.inst) :: rest ->
        if i.uid = before.Rtl.uid then reach
        else walk (transfer_inst t.defs_of_reg i reach) rest
    in
    IntSet.inter
      (walk t.sol.inb.(block) t.cfg.blocks.(block).insts)
      (defs t.defs_of_reg r)
end

(* Available copies: forward, must. The lattice element is Top
   (unreached: every copy holds vacuously) or a finite map dst -> src;
   meet is map intersection on agreeing entries. *)
module Copies = struct
  type elt = Top | Copies of Rtl.operand Reg.Map.t
  type t = { cfg : Cfg.t; sol : elt solution }

  let meet a b =
    match (a, b) with
    | Top, x | x, Top -> x
    | Copies m1, Copies m2 ->
      Copies
        (Reg.Map.merge
           (fun _ s1 s2 ->
             match (s1, s2) with
             | Some s1, Some s2 when s1 = s2 -> Some s1
             | _ -> None)
           m1 m2)

  let equal a b =
    match (a, b) with
    | Top, Top -> true
    | Copies m1, Copies m2 -> Reg.Map.equal ( = ) m1 m2
    | _ -> false

  let kill r m =
    Reg.Map.filter (fun d s -> (not (Reg.equal d r)) && s <> Rtl.Reg r) m

  let transfer_inst (i : Rtl.inst) = function
    | Top -> Top
    | Copies m ->
      let m = List.fold_left (fun m r -> kill r m) m (Rtl.defs i.kind) in
      Copies
        (match i.kind with
        | Rtl.Move (d, Rtl.Reg s) when not (Reg.equal d s) ->
          Reg.Map.add d (Rtl.Reg s) m
        | Rtl.Move (d, (Rtl.Imm _ as imm)) -> Reg.Map.add d imm m
        | _ -> m)

  let compute (cfg : Cfg.t) =
    let transfer b v =
      List.fold_left (fun v i -> transfer_inst i v) v cfg.blocks.(b).insts
    in
    let sol =
      solve cfg ~direction:Forward ~boundary:(Copies Reg.Map.empty) ~top:Top
        ~meet ~equal ~transfer
    in
    { cfg; sol }

  (* Each instruction with the copies available before it; Top renders
     as the empty map. *)
  let copies_before_each t b =
    let to_map = function Top -> Reg.Map.empty | Copies m -> m in
    let _, acc =
      List.fold_left
        (fun (v, acc) i -> (transfer_inst i v, (i, to_map v) :: acc))
        (t.sol.inb.(b), [])
        t.cfg.blocks.(b).insts
    in
    List.rev acc
end

(* Available expressions: forward, must, over sets of [(reg id, key)]
   facts. Every block starts at the universe of facts and the transfer
   filters the set instruction by instruction, so a block no path from
   the entry reaches keeps the greatest fixed point. Iterated round-robin
   over block indices. *)
module Avail = struct
  module A = Mac_dataflow.Avail

  module FactSet = Set.Make (struct
    type t = int * A.key

    let compare = Stdlib.compare
  end)

  let key_regs = function
    | A.Move (Rtl.Reg r) -> [ r ]
    | A.Move (Rtl.Imm _) -> []
    | A.Bin (_, a, b) ->
      List.filter_map (function Rtl.Reg r -> Some r | _ -> None) [ a; b ]
    | A.Un (_, Rtl.Reg r) -> [ r ]
    | A.Un (_, Rtl.Imm _) -> []
    | A.Load (m, _) -> [ m.Rtl.base ]
    | A.Ext (src, pos, _, _) -> (
      src :: (match pos with Rtl.Reg r -> [ r ] | Rtl.Imm _ -> []))

  let is_load_key = function A.Load _ -> true | _ -> false

  let gen_fact (i : Rtl.inst) =
    let ok d key = not (List.exists (Reg.equal d) (key_regs key)) in
    match i.kind with
    | Rtl.Move (d, o) ->
      let k = A.Move o in
      if ok d k then Some (d, k) else None
    | Rtl.Binop (op, d, a, b) ->
      let k = A.Bin (op, a, b) in
      if ok d k then Some (d, k) else None
    | Rtl.Unop (op, d, a) ->
      let k = A.Un (op, a) in
      if ok d k then Some (d, k) else None
    | Rtl.Load { dst; src; sign } ->
      let k = A.Load (src, sign) in
      if ok dst k then Some (dst, k) else None
    | Rtl.Extract { dst; src; pos; width; sign } ->
      let k = A.Ext (src, pos, width, sign) in
      if ok dst k then Some (dst, k) else None
    | _ -> None

  let fact_step s (i : Rtl.inst) =
    let s =
      match i.kind with
      | Rtl.Store _ -> FactSet.filter (fun (_, k) -> not (is_load_key k)) s
      | Rtl.Call _ -> FactSet.empty
      | _ -> s
    in
    let ds = Rtl.defs i.kind in
    let s =
      if ds = [] then s
      else
        FactSet.filter
          (fun (d, k) ->
            not
              (List.exists
                 (fun r ->
                   Reg.id r = d || List.exists (Reg.equal r) (key_regs k))
                 ds))
          s
    in
    match gen_fact i with
    | Some (d, k) -> FactSet.add (Reg.id d, k) s
    | None -> s

  (* in = ∩ preds out (empty at the entry and without preds) *)
  let facts_in (cfg : Cfg.t) =
    let n = Array.length cfg.blocks in
    let universe =
      List.fold_left
        (fun s i ->
          match gen_fact i with
          | Some (d, k) -> FactSet.add (Reg.id d, k) s
          | None -> s)
        FactSet.empty cfg.func.Func.body
    in
    let inb = Array.make n FactSet.empty in
    let outb = Array.make n universe in
    let entry = Cfg.entry cfg in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun (b : Cfg.block) ->
          let i = b.index in
          let in_ =
            if i = entry then FactSet.empty
            else
              match cfg.pred.(i) with
              | [] -> FactSet.empty
              | p :: ps ->
                List.fold_left
                  (fun acc q -> FactSet.inter acc outb.(q))
                  outb.(p) ps
          in
          let out = List.fold_left fact_step in_ b.insts in
          if
            (not (FactSet.equal in_ inb.(i)))
            || not (FactSet.equal out outb.(i))
          then begin
            inb.(i) <- in_;
            outb.(i) <- out;
            changed := true
          end)
        cfg.blocks
    done;
    inb
end

(* Congruence: the round-robin solve, sweeping every block in reverse
   postorder until a sweep changes nothing, over its own states with the
   production lattice join and transfer. A state maps each register
   redefined on some path to its value; every other register holds
   [default]: its entry value, or its seeded constant. *)
module Congruence = struct
  module C = Mac_dataflow.Congruence

  let value_of default st r =
    match Reg.Map.find_opt r st with Some v -> v | None -> default r

  (* a binding equal to the default is dropped, so equal states are
     equal maps *)
  let bind default st r v =
    if C.value_equal v (default r) then Reg.Map.remove r st
    else Reg.Map.add r v st

  let state_join default a b =
    Reg.Map.fold
      (fun r _ acc ->
        bind default acc r
          (C.join (value_of default a r) (value_of default b r)))
      (Reg.Map.union (fun _ v _ -> Some v) a b)
      Reg.Map.empty

  (* The in- and out-state of every block, as lookups. *)
  let solve ?(consts = []) (cfg : Cfg.t) =
    let default r =
      match List.find_opt (fun (s, _) -> Reg.equal s r) consts with
      | Some (_, c) -> C.const c
      | None -> C.entry r
    in
    let n = Array.length cfg.blocks in
    let initial = Reg.Map.empty in
    let ins = Array.make n initial and outs = Array.make n initial in
    let reached = Array.make n false in
    let transfer_block b st =
      List.fold_left
        (fun st (i : Rtl.inst) ->
          match C.transfer (value_of default st) i.kind with
          | Some (d, v) -> bind default st d v
          | None -> st)
        st cfg.blocks.(b).insts
    in
    let equal = Reg.Map.equal C.value_equal in
    let order = Cfg.rpo cfg in
    let entry_b = Cfg.entry cfg in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 1000 do
      changed := false;
      incr rounds;
      Array.iter
        (fun b ->
          let in_st =
            let joined =
              List.fold_left
                (fun acc p ->
                  if not reached.(p) then acc
                  else
                    match acc with
                    | None -> Some outs.(p)
                    | Some st -> Some (state_join default st outs.(p)))
                None cfg.pred.(b)
            in
            match joined with
            | None -> initial
            | Some st ->
              if b = entry_b then state_join default initial st else st
          in
          let out_st = transfer_block b in_st in
          if not reached.(b) then begin
            reached.(b) <- true;
            changed := true
          end;
          if not (equal in_st ins.(b)) then begin
            ins.(b) <- in_st;
            changed := true
          end;
          if not (equal out_st outs.(b)) then begin
            outs.(b) <- out_st;
            changed := true
          end)
        order
    done;
    (Array.map (value_of default) ins, Array.map (value_of default) outs)
end

(* Dead-code elimination's faint-register sweep, with a per-register
   list of using instructions and a sorted register universe. *)
let remove_faint (f : Func.t) =
  let params = Reg.Set.of_list f.params in
  let used_by : Rtl.inst list Reg.Tbl.t = Reg.Tbl.create 16 in
  List.iter
    (fun (i : Rtl.inst) ->
      List.iter
        (fun r ->
          Reg.Tbl.replace used_by r
            (i :: Option.value (Reg.Tbl.find_opt used_by r) ~default:[]))
        (Rtl.uses i.kind))
    f.body;
  let faint r =
    (not (Reg.Set.mem r params))
    && List.for_all
         (fun (i : Rtl.inst) ->
           (not (Rtl.has_side_effect i.kind))
           && match Rtl.defs i.kind with
              | [ d ] -> Reg.equal d r
              | _ -> false)
         (Option.value (Reg.Tbl.find_opt used_by r) ~default:[])
  in
  let all_regs =
    List.concat_map
      (fun (i : Rtl.inst) -> Rtl.defs i.kind @ Rtl.uses i.kind)
      f.body
    |> List.sort_uniq Reg.compare
  in
  let dead_regs = List.filter faint all_regs in
  if dead_regs = [] then false
  else begin
    let is_dead_inst (i : Rtl.inst) =
      (not (Rtl.has_side_effect i.kind))
      &&
      match Rtl.defs i.kind with
      | [ d ] -> List.exists (Reg.equal d) dead_regs
      | _ -> false
    in
    let body' = List.filter (fun i -> not (is_dead_inst i)) f.body in
    if List.length body' <> List.length f.body then begin
      Func.set_body f body';
      true
    end
    else false
  end
