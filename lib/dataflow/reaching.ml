open Mac_rtl

(* Registers are indexed by [Reg.id] (dense; [Func.next_reg] bounds
   them). Only "does any definition of r reach this use" is asked, and
   kills cannot change that answer: on any path through a definition of
   r, the last one reaches. So the solve is "maybe defined": gen = the
   block's defs, kill = nothing, boundary = the parameters. *)
type t = { cfg : Mac_cfg.Cfg.t; entry : Bitv.t array; nbits : int }

let compute (cfg : Mac_cfg.Cfg.t) =
  let nbits = cfg.func.next_reg in
  let n = Array.length cfg.blocks in
  let gen = Array.init n (fun _ -> Bitv.create nbits)
  and kill = Array.init n (fun _ -> Bitv.create nbits) in
  Array.iteri
    (fun b (blk : Mac_cfg.Cfg.block) ->
      List.iter
        (fun (i : Rtl.inst) ->
          List.iter (fun r -> Bitv.set gen.(b) (Reg.id r)) (Rtl.defs i.kind))
        blk.insts)
    cfg.blocks;
  let boundary = Bitv.create nbits in
  List.iter (fun r -> Bitv.set boundary (Reg.id r)) cfg.func.params;
  let sol =
    Dataflow.solve_bits cfg ~direction:Dataflow.Forward ~meet:Dataflow.Union
      ~gen ~kill ~boundary
  in
  let force = function Some v -> v | None -> Bitv.create nbits in
  { cfg; entry = Array.map force sol.Dataflow.inb; nbits }

(* A definition inside the block before the use always reaches it;
   without one, the use is reached exactly when its register may be
   defined at the block entry. One working vector holds both: the entry
   set, plus each definition as the walk passes it. *)
let iter_undefined_uses t ~block k =
  let defined = Bitv.copy t.entry.(block) in
  let is_defined r = Reg.id r < t.nbits && Bitv.get defined (Reg.id r) in
  List.iter
    (fun (i : Rtl.inst) ->
      List.iter (fun r -> if not (is_defined r) then k i r) (Rtl.uses i.kind);
      List.iter (fun r -> Bitv.set defined (Reg.id r)) (Rtl.defs i.kind))
    t.cfg.blocks.(block).insts
