open Mac_rtl

(* Available copies on the must-variant of the packed gen/kill solver
   (Top = the solver's [None], "unreached: all copies hold vacuously";
   meet = intersection). Each distinct copy *fact* — a [(dst, src)] pair
   some qualifying Move establishes — gets one bit. A fact is killed by
   any definition of its destination or source register. At a valid
   program point at most one fact per destination is available, so a
   lookup by destination is unambiguous. *)

type t = {
  cfg : Mac_cfg.Cfg.t;
  sol : Bitv.t option Dataflow.solution;
  fact_dst : Reg.t array;
  fact_op : Rtl.operand array;
  facts_of_reg : Bitv.t Reg.Tbl.t;  (* facts mentioning the register *)
  fact_index : (int * Rtl.operand, int) Hashtbl.t;
      (* (dst id, operand) -> fact *)
}

(* The copy fact an instruction establishes, if any. *)
let copy_of_inst (i : Rtl.inst) =
  match i.kind with
  | Rtl.Move (d, Rtl.Reg s) when not (Reg.equal d s) -> Some (d, Rtl.Reg s)
  | Rtl.Move (d, (Rtl.Imm _ as imm)) -> Some (d, imm)
  | _ -> None

let compute (cfg : Mac_cfg.Cfg.t) =
  (* Enumerate the distinct facts in body order. *)
  let fact_index = Hashtbl.create 32 in
  let rev_facts = ref [] and nfacts = ref 0 in
  Array.iter
    (fun (b : Mac_cfg.Cfg.block) ->
      List.iter
        (fun (i : Rtl.inst) ->
          match copy_of_inst i with
          | Some (d, op) ->
            let key = (Reg.id d, op) in
            if not (Hashtbl.mem fact_index key) then begin
              Hashtbl.add fact_index key !nfacts;
              rev_facts := (d, op) :: !rev_facts;
              incr nfacts
            end
          | None -> ())
        b.insts)
    cfg.blocks;
  let nfacts = !nfacts in
  let facts = Array.of_list (List.rev !rev_facts) in
  let fact_dst = Array.map fst facts and fact_op = Array.map snd facts in
  let facts_of_reg = Reg.Tbl.create 16 in
  let mask_of r =
    match Reg.Tbl.find_opt facts_of_reg r with
    | Some m -> m
    | None ->
      let m = Bitv.create nfacts in
      Reg.Tbl.replace facts_of_reg r m;
      m
  in
  Array.iteri
    (fun fi (d : Reg.t) ->
      Bitv.set (mask_of d) fi;
      match fact_op.(fi) with
      | Rtl.Reg s -> Bitv.set (mask_of s) fi
      | Rtl.Imm _ -> ())
    fact_dst;
  let n = Array.length cfg.blocks in
  let gen = Array.init n (fun _ -> Bitv.create nfacts)
  and kill = Array.init n (fun _ -> Bitv.create nfacts) in
  for b = 0 to n - 1 do
    List.iter
      (fun (i : Rtl.inst) ->
        List.iter
          (fun r ->
            match Reg.Tbl.find_opt facts_of_reg r with
            | Some m ->
              ignore (Bitv.union_into ~into:kill.(b) m);
              ignore (Bitv.diff_into ~into:gen.(b) m)
            | None -> ())
          (Rtl.defs i.kind);
        match copy_of_inst i with
        | Some (d, op) ->
          let fi = Hashtbl.find fact_index (Reg.id d, op) in
          Bitv.set gen.(b) fi;
          Bitv.clear kill.(b) fi
        | None -> ())
      cfg.blocks.(b).insts
  done;
  let sol =
    Dataflow.solve_bits cfg ~direction:Dataflow.Forward ~meet:Dataflow.Inter
      ~gen ~kill ~boundary:(Bitv.create nfacts)
  in
  { cfg; sol; fact_dst; fact_op; facts_of_reg; fact_index }

(* A lookup scans only the facts that mention the queried register, so
   no per-instruction [Reg.Map] is ever built. [None] is Top: no copy is
   reported. *)
let look t = function
  | None -> fun _ -> None
  | Some bv ->
    fun r -> (
      match Reg.Tbl.find_opt t.facts_of_reg r with
      | None -> None
      | Some mask ->
        Bitv.fold_set
          (fun fi acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if Bitv.get bv fi && Reg.equal t.fact_dst.(fi) r then
                Some t.fact_op.(fi)
              else None)
          mask None)

(* The per-instruction transfer, in place. *)
let step t bv (i : Rtl.inst) =
  List.iter
    (fun r ->
      match Reg.Tbl.find_opt t.facts_of_reg r with
      | Some m -> ignore (Bitv.diff_into ~into:bv m)
      | None -> ())
    (Rtl.defs i.kind);
  match copy_of_inst i with
  | Some (d, op) -> Bitv.set bv (Hashtbl.find t.fact_index (Reg.id d, op))
  | None -> ()

(* One working vector for the whole block, transferred in place after
   each call. *)
let fold_block t b ~init ~f =
  let v = Option.map Bitv.copy t.sol.Dataflow.inb.(b) in
  let lookup = look t v in
  List.fold_left
    (fun acc i ->
      let acc = f acc i lookup in
      Option.iter (fun bv -> step t bv i) v;
      acc)
    init t.cfg.blocks.(b).insts
