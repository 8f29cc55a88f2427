open Mac_rtl

(* Registers are indexed by [Reg.id] (dense; [Func.next_reg] bounds
   them) and solved with the packed gen/kill solver. *)

type t = { cfg : Mac_cfg.Cfg.t; sol : Bitv.t Dataflow.solution; nbits : int }

(* Block gen = upward-exposed uses, kill = defs. *)
let compute (cfg : Mac_cfg.Cfg.t) =
  let nbits = cfg.func.next_reg in
  let n = Array.length cfg.blocks in
  let gen = Array.init n (fun _ -> Bitv.create nbits)
  and kill = Array.init n (fun _ -> Bitv.create nbits) in
  for b = 0 to n - 1 do
    List.iter
      (fun (i : Rtl.inst) ->
        List.iter
          (fun r ->
            if not (Bitv.get kill.(b) (Reg.id r)) then
              Bitv.set gen.(b) (Reg.id r))
          (Rtl.uses i.kind);
        List.iter (fun r -> Bitv.set kill.(b) (Reg.id r)) (Rtl.defs i.kind))
      cfg.blocks.(b).insts
  done;
  let sol =
    Dataflow.solve_bits cfg ~direction:Dataflow.Backward ~meet:Dataflow.Union
      ~gen ~kill ~boundary:(Bitv.create nbits)
  in
  let force = function Some v -> v | None -> Bitv.create nbits in
  {
    cfg;
    sol =
      {
        Dataflow.inb = Array.map force sol.Dataflow.inb;
        outb = Array.map force sol.Dataflow.outb;
      };
    nbits;
  }

let to_set bv = Bitv.fold_set (fun i acc -> Reg.Set.add (Reg.make i) acc) bv Reg.Set.empty
let live_in t b = to_set t.sol.Dataflow.inb.(b)
let for_all_reg p bv = Bitv.for_all_set (fun i -> p (Reg.make i)) bv
let for_all_in t b p = for_all_reg p t.sol.Dataflow.inb.(b)
let for_all_out t b p = for_all_reg p t.sol.Dataflow.outb.(b)

(* The one per-instruction transfer: visit block [b]'s instructions in
   reverse body order, calling [f live] once for the block and the
   result on each instruction while [live] holds liveness after it, then
   transfer that single working vector in place (the whole block costs
   one copy). The accumulator threads through in visit order, so consing
   builds a forward-order list. *)
let walk t b ~init ~f =
  let live = Bitv.copy t.sol.Dataflow.outb.(b) in
  let f = f live in
  List.fold_right
    (fun (i : Rtl.inst) acc ->
      let acc = f acc i in
      List.iter (fun r -> Bitv.clear live (Reg.id r)) (Rtl.defs i.kind);
      List.iter (fun r -> Bitv.set live (Reg.id r)) (Rtl.uses i.kind);
      acc)
    t.cfg.blocks.(b).insts init

let live_after_each t b =
  walk t b ~init:[] ~f:(fun live acc i -> (i, to_set live) :: acc)

let fold_live_after t b ~init ~f =
  let nbits = t.nbits in
  walk t b ~init ~f:(fun live ->
      let query r = Reg.id r < nbits && Bitv.get live (Reg.id r) in
      fun acc i -> f acc i query)
