open Mac_rtl
module IntSet = Set.Make (Int)

let param_uid r = -1 - Reg.id r

(* Definition *sites* are numbered densely: one index per (defining
   instruction, defined register) in body order, preceded by one
   pseudo-site per function parameter. [site_uid] maps a site back to
   the uid the public API speaks in; [sites_of_reg] is the per-register
   kill/filter mask; [first_site.(b)] is the index of block [b]'s first
   site. *)
type t = {
  cfg : Mac_cfg.Cfg.t;
  sol : Bitv.t Dataflow.solution;
  site_uid : int array;
  sites_of_reg : Bitv.t Reg.Tbl.t;
  first_site : int array;
}

let compute (cfg : Mac_cfg.Cfg.t) =
  let n = Array.length cfg.blocks in
  let first_site = Array.make n 0 in
  let uids = ref [] and nsites = ref 0 in
  let new_site uid =
    let s = !nsites in
    incr nsites;
    uids := uid :: !uids;
    s
  in
  (* Explicit in-order numbering (no reliance on map evaluation order):
     parameters first, then every block's defs in body order. *)
  let param_sites =
    List.fold_left
      (fun acc r -> (r, new_site (param_uid r)) :: acc)
      [] cfg.func.params
    |> List.rev
  in
  let block_sites = Array.make n ([] : (Reg.t * int) list) in
  Array.iteri
    (fun bi (b : Mac_cfg.Cfg.block) ->
      first_site.(bi) <- !nsites;
      let acc = ref [] in
      List.iter
        (fun (i : Rtl.inst) ->
          List.iter
            (fun r -> acc := (r, new_site i.uid) :: !acc)
            (Rtl.defs i.kind))
        b.insts;
      block_sites.(bi) <- List.rev !acc)
    cfg.blocks;
  let nsites = !nsites in
  let site_uid = Array.of_list (List.rev !uids) in
  let sites_of_reg = Reg.Tbl.create 32 in
  let mask_of r =
    match Reg.Tbl.find_opt sites_of_reg r with
    | Some m -> m
    | None ->
      let m = Bitv.create nsites in
      Reg.Tbl.replace sites_of_reg r m;
      m
  in
  List.iter (fun (r, s) -> Bitv.set (mask_of r) s) param_sites;
  Array.iter
    (fun sites -> List.iter (fun (r, s) -> Bitv.set (mask_of r) s) sites)
    block_sites;
  let gen = Array.init n (fun _ -> Bitv.create nsites)
  and kill = Array.init n (fun _ -> Bitv.create nsites) in
  for b = 0 to n - 1 do
    List.iter
      (fun (r, s) ->
        let m = mask_of r in
        ignore (Bitv.diff_into ~into:gen.(b) m);
        ignore (Bitv.union_into ~into:kill.(b) m);
        Bitv.set gen.(b) s)
      block_sites.(b)
  done;
  let boundary = Bitv.create nsites in
  List.iter (fun (_, s) -> Bitv.set boundary s) param_sites;
  let sol =
    Dataflow.solve_bits cfg ~direction:Dataflow.Forward ~meet:Dataflow.Union
      ~gen ~kill ~boundary
  in
  let force = function Some v -> v | None -> Bitv.create nsites in
  {
    cfg;
    sol =
      {
        Dataflow.inb = Array.map force sol.Dataflow.inb;
        outb = Array.map force sol.Dataflow.outb;
      };
    site_uid;
    sites_of_reg;
    first_site;
  }

(* Walk the block on a scratch vector up to [before], then mask to [r]'s
   definition sites. Sites are numbered in body order from
   [first_site.(block)], so the per-instruction transfer is: kill the
   defined registers' sites, set the instruction's own. *)
let defs_of_reg_reaching t ~block ~before r =
  let reach = Bitv.copy t.sol.Dataflow.inb.(block) in
  let rec walk site = function
    | [] -> raise Not_found
    | (i : Rtl.inst) :: rest when i.uid <> before.Rtl.uid ->
      let site =
        List.fold_left
          (fun site dr ->
            ignore (Bitv.diff_into ~into:reach (Reg.Tbl.find t.sites_of_reg dr));
            Bitv.set reach site;
            site + 1)
          site (Rtl.defs i.kind)
      in
      walk site rest
    | _ -> ()
  in
  walk t.first_site.(block) t.cfg.blocks.(block).insts;
  match Reg.Tbl.find_opt t.sites_of_reg r with
  | None -> IntSet.empty
  | Some mask ->
    ignore (Bitv.inter_into ~into:reach mask);
    Bitv.fold_set (fun s acc -> IntSet.add t.site_uid.(s) acc) reach
      IntSet.empty
