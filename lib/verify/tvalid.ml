open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Congruence = Mac_dataflow.Congruence
module Liveness = Mac_dataflow.Liveness
module Avail = Mac_dataflow.Avail
module Disambig = Mac_core.Disambig
module Sx = Symexec

type result = {
  blocks_checked : int;
  blocks_skipped : int;
  regions_skipped : int;
  warnings : Diagnostic.t list;
}

let snapshot (f : Func.t) = { f with Func.name = f.Func.name }

(* ------------------------------------------------------------------ *)
(* Entry-environment seeding. For the old block's entry we know (a) the
   available equalities ({!Avail}: a fact [d = key] means [d] holds the
   value of [key] over the {e current} values of its registers, exactly
   the justification CSE and copy propagation use when they reuse a value
   across a block boundary) and (b) the congruence solution: exact
   constants, and registers still holding [entry q + off]. Each fact is
   expanded into a term over entry symbols; every register's candidates
   collapse to one canonical choice (smallest term), and both sides are
   executed under the same seeded environment — so a pass that replaced
   a computation by an equal available value still matches. *)

let seed_env ctx ~avail ~cong_st ~regs =
  let facts_of = Hashtbl.create 16 in
  List.iter
    (fun (d, k) ->
      Hashtbl.replace facts_of (Reg.id d)
        (k :: Option.value (Hashtbl.find_opt facts_of (Reg.id d)) ~default:[]))
    avail;
  let memo = Hashtbl.create 16 in
  let rec term_of seen r =
    if List.exists (Reg.equal r) seen then Sx.Sym (Sx.SEntry r)
    else
      match Hashtbl.find_opt memo (Reg.id r) with
      | Some t -> t
      | None ->
        let seen = r :: seen in
        let operand = function
          | Rtl.Reg q -> term_of seen q
          | Rtl.Imm i -> Sx.Con i
        in
        let of_key = function
          | Avail.Move o -> operand o
          | Avail.Bin (op, a, b) -> Sx.bin ctx op (operand a) (operand b)
          | Avail.Un (op, a) -> Sx.un ctx op (operand a)
          | Avail.Load (m, sign) ->
            let a =
              Sx.bin ctx Rtl.Add (term_of seen m.Rtl.base)
                (Sx.Con m.Rtl.disp)
            in
            let a =
              if m.Rtl.aligned then a
              else
                Sx.bin ctx Rtl.And a
                  (Sx.Con (Int64.of_int (-Width.bytes m.Rtl.width)))
            in
            Sx.read ctx (Sx.MSym Sx.MEntry) a m.Rtl.width sign
          | Avail.Ext (src, pos, w, sign) ->
            Sx.ext ctx (term_of seen src) (operand pos) w sign
        in
        let cands =
          (match Congruence.exact (Congruence.value_of cong_st r) with
          | Some c -> [ Sx.Con c ]
          | None -> (
            match Congruence.exact_affine (Congruence.value_of cong_st r) with
            | Some (q, off)
              when (not (Reg.equal q r))
                   && Congruence.value_equal
                        (Congruence.value_of cong_st q)
                        (Congruence.entry q) ->
              [ Sx.bin ctx Rtl.Add (term_of seen q) (Sx.Con off) ]
            | _ -> []))
          @ List.map of_key
              (Option.value (Hashtbl.find_opt facts_of (Reg.id r))
                 ~default:[])
        in
        let t =
          match cands with
          | [] -> Sx.Sym (Sx.SEntry r)
          | c :: cs ->
            List.fold_left
              (fun best t ->
                let sb = Sx.term_size best and st = Sx.term_size t in
                if st < sb || (st = sb && Sx.compare_term t best < 0) then t
                else best)
              c cs
        in
        Hashtbl.replace memo (Reg.id r) t;
        t
  in
  let bindings =
    List.filter_map
      (fun r ->
        let t = term_of [] r in
        match t with
        | Sx.Sym (Sx.SEntry r') when Reg.equal r r' -> None
        | _ -> Some (r, t))
      regs
  in
  {
    Sx.empty_env with
    Sx.regs =
      List.fold_left
        (fun m (r, t) -> Reg.Map.add r t m)
        Reg.Map.empty bindings;
  }

(* ------------------------------------------------------------------ *)
(* The cross-base disambiguation oracle: evaluate both address terms to
   congruence values over the old function's entry symbols, take their
   low-3-bit residues under the asserted alignment facts, and call the
   ranges disjoint when their footprint byte sets mod 8 cannot meet
   (addresses with different residues are different addresses). *)

let congruence_oracle st (aligns : (Reg.t * int) list) =
  let sym_align r =
    match List.find_opt (fun (q, _) -> Reg.equal q r) aligns with
    | Some (_, k) -> k
    | None -> 0
  in
  let rec cvalue = function
    | Sx.Con c -> Congruence.const c
    | Sx.Sym (Sx.SEntry r) -> Congruence.value_of st r
    | Sx.Bin (Rtl.Add, a, b) -> Congruence.add (cvalue a) (cvalue b)
    | Sx.Bin (Rtl.Mul, a, Sx.Con c) -> Congruence.mul_const (cvalue a) c
    | Sx.Bin (Rtl.Shl, a, Sx.Con k)
      when Int64.compare k 0L >= 0 && Int64.compare k 62L <= 0 ->
      Congruence.mul_const (cvalue a)
        (Int64.shift_left 1L (Int64.to_int k))
    | Sx.Bin (Rtl.And, _, Sx.Con c)
      when Int64.compare c 0L < 0 && Width.log2_exact (Int64.neg c) <> None
      ->
      (* x & -2^j is a multiple of 2^j *)
      Congruence.make ~sym:None ~stride:0L ~off:0L
        ~k:(Option.get (Width.log2_exact (Int64.neg c)))
    | _ -> Congruence.top
  in
  fun a wa b wb ->
    wa + wb <= 8
    &&
    match
      ( Congruence.residue ~sym_align (cvalue a) ~bits:3,
        Congruence.residue ~sym_align (cvalue b) ~bits:3 )
    with
    | Some ra, Some rb ->
      let footprint r w =
        let r = Int64.to_int r in
        List.init w (fun i -> (r + i) land 7)
      in
      let fa = footprint ra wa in
      List.for_all (fun x -> not (List.mem x fa)) (footprint rb wb)
    | _ -> false

(* ------------------------------------------------------------------ *)
(* CFG navigation: trivial blocks (label/nop/jump only) are chased
   through when resolving edges, and a unit keeps executing into an
   unconditional successor that no other chased edge reaches — the same
   merges cleanflow performs, applied virtually to both sides. *)

let is_trivial (b : Cfg.block) =
  match List.rev (Cfg.non_label_insts b) with
  | [] -> true
  | last :: rest ->
    (match last.Rtl.kind with
    | Rtl.Jump _ | Rtl.Nop -> true
    | _ -> false)
    && List.for_all (fun i -> i.Rtl.kind = Rtl.Nop) rest

let chase (cfg : Cfg.t) t =
  let rec go fuel t =
    if fuel = 0 then t
    else
      let b = cfg.blocks.(t) in
      if is_trivial b then
        match cfg.succ.(t) with [ s ] when s <> t -> go (fuel - 1) s | _ -> t
      else t
  in
  go 32 t

(* effective in-degree: edges counted through trivial chains, so the
   number is stable whether or not cleanflow already rethreaded them *)
let effective_indegree (cfg : Cfg.t) =
  let n = Array.length cfg.blocks in
  let deg = Array.make n 0 in
  let reach = Cfg.reachable cfg in
  Array.iter
    (fun (b : Cfg.block) ->
      if reach.(b.index) && not (is_trivial b) then
        List.iter
          (fun s ->
            let t = chase cfg s in
            deg.(t) <- deg.(t) + 1)
          cfg.succ.(b.index))
    cfg.blocks;
  deg

type unit_exit =
  | XJump of int
  | XCond of Sx.term * int * int  (* cond, taken, fallthrough *)
  | XRet of Sx.term option

exception Stuck of string

(* fallthrough successor of block [i]: the unique successor that is not
   a branch target — by construction of Cfg it is the following block *)
let next_in_body (cfg : Cfg.t) i =
  match cfg.succ.(i) with
  | [ s ] -> s
  | [ s1; s2 ] -> (
    let b = cfg.blocks.(i) in
    match List.rev b.insts with
    | { Rtl.kind = Rtl.Branch { target; _ }; _ } :: _ -> (
      match Cfg.block_of_label cfg target with
      | Some t when t = s1 -> s2
      | Some t when t = s2 -> s1
      | _ -> raise (Stuck "branch target outside cfg"))
    | _ -> raise (Stuck "two successors without a branch"))
  | _ -> raise (Stuck "unexpected successor count")

(* symbolically execute the unit starting at block [b]: straight-line
   instructions, then the terminator; keep going into an unconditional
   successor only this unit reaches *)
(* [stop t] marks region cut-points (transformed-loop headers): a unit
   never executes across one, even when it is the target's only
   predecessor — the region carve must see the pairing stop there on
   both sides *)
let run_unit ctx (cfg : Cfg.t) deg ~stop env b =
  let next_in_body i = next_in_body cfg i in
  let rec go visited env b =
    let blk = cfg.blocks.(b) in
    let env = Sx.exec_insts ctx env blk.insts in
    let exit_ =
      match List.rev blk.insts with
      | { Rtl.kind = Rtl.Ret o; _ } :: _ ->
        XRet (Option.map (Sx.operand env) o)
      | { Rtl.kind = Rtl.Jump l; _ } :: _ -> (
        match Cfg.block_of_label cfg l with
        | Some t -> XJump (chase cfg t)
        | None -> raise (Stuck ("jump to unknown label " ^ l)))
      | { Rtl.kind = Rtl.Branch { cmp; l; r; target }; _ } :: _ -> (
        let cond =
          Sx.bin ctx (Rtl.Cmp cmp) (Sx.operand env l) (Sx.operand env r)
        in
        let taken =
          match Cfg.block_of_label cfg target with
          | Some t -> chase cfg t
          | None -> raise (Stuck ("branch to unknown label " ^ target))
        in
        let fall = chase cfg (next_in_body b) in
        match cond with
        | Sx.Con 0L -> XJump fall
        | Sx.Con _ -> XJump taken
        | _ when taken = fall -> XJump taken
        | _ -> XCond (cond, taken, fall))
      | _ -> XJump (chase cfg (next_in_body b))
    in
    match exit_ with
    | XJump t
      when deg.(t) <= 1
           && (not (stop t))
           && (not (List.mem t visited))
           && t <> b
           && List.length visited < 64 ->
      go (t :: visited) env t
    | e -> (env, e)
  in
  go [ b ] env b

let first_real_uid (b : Cfg.block) =
  List.find_map
    (fun (i : Rtl.inst) ->
      match i.kind with Rtl.Label _ -> None | _ -> Some i.uid)
    b.insts

(* the continuation of a transformed loop on the new side: the block
   whose first real instruction is the old continuation's (uids of
   untouched code survive the transformation), else the same label *)
let find_continuation (ocfg : Cfg.t) (ncfg : Cfg.t) oc =
  let ob = ocfg.blocks.(oc) in
  let by_uid =
    match first_real_uid ob with
    | None -> None
    | Some uid ->
      Array.fold_left
        (fun acc (nb : Cfg.block) ->
          match acc with
          | Some _ -> acc
          | None ->
            if first_real_uid nb = Some uid then Some nb.index else None)
        None ncfg.blocks
  in
  match by_uid with
  | Some nc -> Some nc
  | None -> (
    match ob.label with
    | Some l -> Cfg.block_of_label ncfg l
    | None -> None)

(* ------------------------------------------------------------------ *)
(* What one validation builds, and drops when it returns. Each side gets
   its CFG view and effective in-degrees, and — lazily, only when some
   pair needs a full check — the congruence solution, the
   available-expression facts and liveness. A block's {e generic
   transfer} is its symbolic environment and exit descriptor executed
   from the empty environment (every register at its entry symbol); the
   skip ladder compares the two sides' transfers. Both sides share one
   hash-consing arena, so equal terms are physically equal. *)

type side = {
  s_cfg : Cfg.t;
  s_deg : int array;
  s_cong : Congruence.t Lazy.t;
  s_avail : Avail.t Lazy.t;
  s_live : Liveness.t Lazy.t;
}

let side_of ~(facts : Disambig.facts) (f : Func.t) =
  let cfg = Cfg.build f in
  {
    s_cfg = cfg;
    s_deg = effective_indegree cfg;
    s_cong = lazy (Congruence.solve ~consts:facts.Disambig.values cfg);
    s_avail = lazy (Avail.compute cfg);
    s_live = lazy (Liveness.compute cfg);
  }

type xfer_exit =
  | TRet of Sx.term option
  | TJump of Rtl.label
  | TBranch of Sx.term * Rtl.label  (* cond, taken label *)
  | TFall

type xfer = { x_env : Sx.env; x_exit : xfer_exit }

let xfer_of (ctx : Sx.ctx) (blk : Cfg.block) =
  let env = Sx.exec_insts ctx Sx.empty_env blk.Cfg.insts in
  let x_exit =
    match List.rev blk.Cfg.insts with
    | { Rtl.kind = Rtl.Ret o; _ } :: _ -> TRet (Option.map (Sx.operand env) o)
    | { Rtl.kind = Rtl.Jump l; _ } :: _ -> TJump l
    | { Rtl.kind = Rtl.Branch { cmp; l; r; target }; _ } :: _ ->
      TBranch
        ( Sx.bin ctx (Rtl.Cmp cmp) (Sx.operand env l) (Sx.operand env r),
          target )
    | _ -> TFall
  in
  { x_env = env; x_exit }

(* ------------------------------------------------------------------ *)

let validate ~machine ~(facts : Disambig.facts) ~pass ?(regions = [])
    ~(old_f : Func.t) ~(new_f : Func.t) () =
  let fname = new_f.Func.name in
  let err ?uid fmt =
    Format.kasprintf
      (fun s -> Error (Diagnostic.error ~pass ~func:fname ?uid s))
      fmt
  in
  try
    let osum = side_of ~facts old_f and nsum = side_of ~facts new_f in
    let ocfg = osum.s_cfg and ncfg = nsum.s_cfg in
    let odeg = osum.s_deg and ndeg = nsum.s_deg in
    let stop_of cfg =
      let tbl = Hashtbl.create 4 in
      List.iter
        (fun (l, _) ->
          match Cfg.block_of_label cfg l with
          | Some i -> Hashtbl.replace tbl i ()
          | None -> ())
        regions;
      fun i -> Hashtbl.mem tbl i
    in
    let ostop = stop_of ocfg and nstop = stop_of ncfg in
    (* registers worth seeding: everything either side mentions —
       only needed when some pair reaches a full check *)
    let reg_universe =
      lazy
        (let tbl = Hashtbl.create 64 in
         let add r = Hashtbl.replace tbl (Reg.id r) r in
         List.iter
           (fun (f : Func.t) ->
             List.iter add f.params;
             Option.iter add f.fp_reg;
             List.iter
               (fun (i : Rtl.inst) ->
                 List.iter add (Rtl.defs i.kind);
                 List.iter add (Rtl.uses i.kind))
               f.body)
           [ old_f; new_f ];
         Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
         |> List.sort Reg.compare)
    in
    (* oracle-free context for generic block transfers; shares the
       arena with every seeded context below *)
    let it = Sx.interner () in
    let gctx = Sx.ctx ~interner:it machine.Mac_machine.Machine.word in
    let blocks_checked = ref 0 in
    let blocks_skipped = ref 0 in
    let regions_skipped = ref 0 in
    let warnings = ref [] in
    let pair_o2n = Hashtbl.create 16 in
    let pair_n2o = Hashtbl.create 16 in
    let queue = Queue.create () in
    let enqueue ob nb = Queue.add (ob, nb) queue in
    enqueue (chase ocfg (Cfg.entry ocfg)) (chase ncfg (Cfg.entry ncfg));
    (* The skip ladder. A pair whose two blocks have equal generic
       transfers — same exit shape, same call events, same memory and
       the same term for every register the rest of the new program
       may still read (new-side live-out; dce's dead definitions are
       exactly the legitimate difference this ignores, mirroring the
       full check, which also compares along new-side liveness) — is
       equivalent under ANY entry environment, in particular under the
       seeded one the full check would build: generic-transfer
       equality is entry-symbol-for-entry-symbol substitutable. Such a
       pair is discharged without seeding or unit execution, and its
       successor pairs are enqueued, never assumed. A block the pass
       did not touch at all (the same instruction records) is
       discharged from its exit alone, or with one transfer shared by
       both sides when it ends in a branch. *)
    let try_skip ob nb =
      let pair_jump l =
        match (Cfg.block_of_label ocfg l, Cfg.block_of_label ncfg l) with
        | Some ot, Some nt -> Some (chase ocfg ot, chase ncfg nt)
        | _ -> None
      in
      let fall () =
        match
          ( chase ocfg (next_in_body ocfg ob),
            chase ncfg (next_in_body ncfg nb) )
        with
        | p -> Some p
        | exception Stuck _ -> None
      in
      let generic ~shared =
        let ox = xfer_of gctx ocfg.blocks.(ob) in
        let nx =
          if shared then ox else xfer_of gctx ncfg.blocks.(nb)
        in
        let structural = ox == nx in
        let succs =
          match (ox.x_exit, nx.x_exit) with
          | TRet a, TRet b ->
            if
              match (a, b) with
              | None, None -> true
              | Some ta, Some tb -> Sx.equal ta tb
              | _ -> false
            then Some []
            else None
          | TJump l1, TJump l2 when String.equal l1 l2 ->
            Option.map (fun p -> [ p ]) (pair_jump l1)
          | TBranch (c1, t1), TBranch (c2, t2)
            when Sx.equal c1 c2 && String.equal t1 t2 -> (
            (* constant-folded conditions enqueue only the live edge,
               like run_unit does *)
            match c1 with
            | Sx.Con 0L -> Option.map (fun p -> [ p ]) (fall ())
            | Sx.Con _ -> Option.map (fun p -> [ p ]) (pair_jump t1)
            | _ -> (
              match (pair_jump t1, fall ()) with
              | Some p1, Some p2 -> Some [ p1; p2 ]
              | _ -> None))
          | TFall, TFall -> fall () |> Option.map (fun p -> [ p ])
          | _ -> None
        in
        match succs with
        | None -> None
        | Some ps ->
          let events_ok =
            structural
            ||
            let oe = List.rev ox.x_env.Sx.events
            and ne = List.rev nx.x_env.Sx.events in
            List.length oe = List.length ne
            && List.for_all2
                 (fun (o : Sx.event) (n : Sx.event) ->
                   String.equal o.Sx.ev_func n.Sx.ev_func
                   && List.length o.Sx.ev_args = List.length n.Sx.ev_args
                   && List.for_all2 Sx.equal o.Sx.ev_args n.Sx.ev_args)
                 oe ne
          in
          let state_ok =
            structural
            || Sx.equal_mem ox.x_env.Sx.mem nx.x_env.Sx.mem
               && Liveness.for_all_out (Lazy.force nsum.s_live) nb (fun r ->
                      Sx.equal (Sx.lookup ox.x_env r) (Sx.lookup nx.x_env r))
          in
          if events_ok && state_ok then Some ps else None
      in
      let oinsts = ocfg.blocks.(ob).insts
      and ninsts = ncfg.blocks.(nb).insts in
      (* The same instruction records, one by one: the pass left the
         block alone, so both generic transfers are one and only the
         exit decides the successor pairs. A branch still needs that
         transfer, whose condition may fold to a constant and leave one
         live edge, but it is computed once. *)
      if not (List.equal ( == ) oinsts ninsts) then generic ~shared:false
      else
        match List.rev oinsts with
        | { Rtl.kind = Rtl.Branch _; _ } :: _ -> generic ~shared:true
        | { Rtl.kind = Rtl.Ret _; _ } :: _ -> Some []
        | { Rtl.kind = Rtl.Jump l; _ } :: _ ->
          Option.map (fun p -> [ p ]) (pair_jump l)
        | _ -> Option.map (fun p -> [ p ]) (fall ())
    in
    let mismatch where a b =
      let da, db = Sx.first_diff a b in
      err "%s of %s differ after %s: %a vs %a" where fname pass
        Sx.pp_term da Sx.pp_term db
    in
    let result = ref None in
    let fail e = if !result = None then result := Some e in
    while (not (Queue.is_empty queue)) && !result = None do
      let ob, nb = Queue.pop queue in
      match Hashtbl.find_opt pair_o2n ob with
      | Some nb' ->
        if nb' <> nb then
          fail
            (err "block pairing is not 1:1 (old block %d vs %d/%d)" ob nb'
               nb)
      | None -> (
        (match Hashtbl.find_opt pair_n2o nb with
        | Some ob' when ob' <> ob ->
          fail
            (err "block pairing is not 1:1 (new block %d vs %d/%d)" nb ob'
               ob)
        | _ -> ());
        if !result <> None then ()
        else begin
          Hashtbl.replace pair_o2n ob nb;
          Hashtbl.replace pair_n2o nb ob;
          let oblk = ocfg.blocks.(ob) in
          let region =
            match oblk.label with
            | Some l ->
              List.find_opt (fun (h, _) -> String.equal h l) regions
            | None -> None
          in
          match region with
          | Some (hdr, reason) -> (
            (* carve the transformed loop out: resume at its
               continuation, justified by the pass's own certificate *)
            incr regions_skipped;
            let cont =
              match
                List.filter (fun s -> s <> ob) ocfg.succ.(ob)
              with
              | [ oc ] -> Some (chase ocfg oc)
              | _ -> None
            in
            match cont with
            | None ->
              warnings :=
                Diagnostic.warningf ~pass ~func:fname
                  "loop %s: no unique continuation; matching stopped \
                   at the region (%s)"
                  hdr reason
                :: !warnings
            | Some oc -> (
              match find_continuation ocfg ncfg oc with
              | Some nc -> enqueue oc (chase ncfg nc)
              | None ->
                warnings :=
                  Diagnostic.warningf ~pass ~func:fname
                    "loop %s: continuation anchor not found on the \
                     transformed side; matching stopped at the region \
                     (%s)"
                    hdr reason
                  :: !warnings))
          | None -> (
            match try_skip ob nb with
            | Some ps ->
              incr blocks_skipped;
              List.iter (fun (o, n) -> enqueue o n) ps
            | None -> (
            let st = Congruence.block_in (Lazy.force osum.s_cong) ob in
            let ctx =
              Sx.ctx ~interner:it
                ~cross_disjoint:
                  (congruence_oracle st facts.Disambig.aligns)
                machine.Mac_machine.Machine.word
            in
            let env0 =
              seed_env ctx
                ~avail:(Avail.facts_in (Lazy.force osum.s_avail) ob)
                ~cong_st:st ~regs:(Lazy.force reg_universe)
            in
            match
              ( run_unit ctx ocfg odeg ~stop:ostop env0 ob,
                run_unit ctx ncfg ndeg ~stop:nstop env0 nb )
            with
            | exception Stuck msg ->
              fail (err "symbolic execution stuck: %s" msg)
            | (oenv, oexit), (nenv, nexit) -> (
              incr blocks_checked;
              (* call events must line up exactly *)
              let oev = List.rev oenv.Sx.events
              and nev = List.rev nenv.Sx.events in
              let rec check_events oe ne =
                match (oe, ne) with
                | [], [] -> None
                | o :: os, n :: ns ->
                  if not (String.equal o.Sx.ev_func n.Sx.ev_func) then
                    Some
                      (err
                         "call sequences differ after %s: %s vs %s" pass
                         o.Sx.ev_func n.Sx.ev_func)
                  else if
                    List.length o.Sx.ev_args <> List.length n.Sx.ev_args
                  then
                    Some
                      (err "call %s: argument counts differ after %s"
                         o.Sx.ev_func pass)
                  else (
                    match
                      List.find_opt
                        (fun (a, b) -> not (Sx.equal a b))
                        (List.combine o.Sx.ev_args n.Sx.ev_args)
                    with
                    | Some (a, b) ->
                      Some
                        (mismatch
                           (Printf.sprintf "arguments of call %s"
                              o.Sx.ev_func)
                           a b)
                    | None -> check_events os ns)
                | _ ->
                  Some
                    (err
                       "call counts differ after %s (%d vs %d events)"
                       pass (List.length oev) (List.length nev))
              in
              (match check_events oev nev with
              | Some e -> fail e
              | None -> ());
              (* memory must agree at the unit's exit *)
              (if !result = None
               && not (Sx.equal_mem oenv.Sx.mem nenv.Sx.mem)
              then
                match Sx.first_diff_mem oenv.Sx.mem nenv.Sx.mem with
                | Either.Left (a, b) -> fail (mismatch "stored values" a b)
                | Either.Right (m1, m2) ->
                  fail
                    (err
                       "memory states differ after %s: %a vs %a" pass
                       Sx.pp_mem m1 Sx.pp_mem m2));
              if !result = None then
                (* live registers must agree along every matched edge *)
                let check_edge osucc nsucc =
                  let diff = ref None in
                  if
                    Liveness.for_all_in (Lazy.force nsum.s_live) nsucc
                      (fun r ->
                        let a = Sx.lookup oenv r and b = Sx.lookup nenv r in
                        Sx.equal a b
                        || begin
                             diff := Some (r, a, b);
                             false
                           end)
                  then enqueue osucc nsucc
                  else
                    Option.iter
                      (fun (r, a, b) ->
                        fail
                          (mismatch
                             (Printf.sprintf "values of %s" (Reg.to_string r))
                             a b))
                      !diff
                in
                match (oexit, nexit) with
                | XRet a, XRet b -> (
                  match (a, b) with
                  | None, None -> ()
                  | Some ta, Some tb ->
                    if not (Sx.equal ta tb) then
                      fail (mismatch "return values" ta tb)
                  | _ ->
                    fail
                      (err "return arity differs after %s" pass))
                | XJump ot, XJump nt -> check_edge ot nt
                | XCond (oc, ota, ofa), XCond (nc, nta, nfa) ->
                  if Sx.equal oc nc then begin
                    check_edge ota nta;
                    if !result = None then check_edge ofa nfa
                  end
                  else if
                    match Sx.negate_cond ctx nc with
                    | Some nc' -> Sx.equal oc nc'
                    | None -> false
                  then begin
                    check_edge ota nfa;
                    if !result = None then check_edge ofa nta
                  end
                  else fail (mismatch "branch conditions" oc nc)
                | _ ->
                  let shape = function
                    | XJump _ -> "jump"
                    | XCond _ -> "branch"
                    | XRet _ -> "return"
                  in
                  fail
                    (err
                       "control shapes differ after %s: old block %d \
                        ends in a %s, new block %d in a %s"
                       pass ob (shape oexit) nb (shape nexit)))))
        end)
    done;
    match !result with
    | Some (Error _ as e) -> e
    | Some (Ok _) | None ->
      Ok
        {
          blocks_checked = !blocks_checked;
          blocks_skipped = !blocks_skipped;
          regions_skipped = !regions_skipped;
          warnings = List.rev !warnings;
        }
  with e ->
    err "internal validator failure: %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)

type agg = {
  mutable runs : int;
  mutable blocks : int;
  mutable skipped : int;
  mutable regions : int;
  mutable fallbacks : int;
  mutable fallback_reason : string option;
  mutable replays : int;
  mutable seconds : float;
}

let agg_zero () =
  {
    runs = 0;
    replays = 0;
    blocks = 0;
    skipped = 0;
    regions = 0;
    fallbacks = 0;
    fallback_reason = None;
    seconds = 0.;
  }

let agg_add a b =
  {
    runs = a.runs + b.runs;
    replays = a.replays + b.replays;
    blocks = a.blocks + b.blocks;
    skipped = a.skipped + b.skipped;
    regions = a.regions + b.regions;
    fallbacks = a.fallbacks + b.fallbacks;
    fallback_reason =
      (match a.fallback_reason with None -> b.fallback_reason | r -> r);
    seconds = a.seconds +. b.seconds;
  }
