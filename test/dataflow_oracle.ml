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
