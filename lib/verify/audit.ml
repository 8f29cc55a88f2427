open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Linform = Mac_opt.Linform
module Partition = Mac_core.Partition
module Coalesce = Mac_core.Coalesce
module Machine = Mac_machine.Machine
module I64Set = Set.Make (Int64)

module PairSet = Set.Make (struct
  type t = int * int

  let compare = Stdlib.compare
end)

let pass = "coalesce-audit"
let errorf ?uid fmt = Diagnostic.errorf ~pass ?uid fmt
let warningf ?uid fmt = Diagnostic.warningf ~pass ?uid fmt

let pp_terms ppf (terms : (Linform.sym * int64) list) =
  Linform.pp ppf { Linform.const = 0L; terms }

let terms_eq a b =
  Linform.same_terms { Linform.const = 0L; terms = a }
    { Linform.const = 0L; terms = b }

(* The loop body proper: the instructions of the block headed by [l],
   without the label and the bottom test/back-branch, in the shape
   {!Partition.analyze} expects. *)
let interior cfg l =
  match Cfg.block_of_label cfg l with
  | None -> None
  | Some i ->
    let b = cfg.Cfg.blocks.(i) in
    Some
      (List.filter
         (fun (inst : Rtl.inst) ->
           match inst.kind with
           | Rtl.Label _ -> false
           | k -> not (Rtl.is_terminator k))
         b.Cfg.insts)

(* --- wide-reference shapes ------------------------------------------ *)

(* An aligned load whose value is picked apart by [Extract]s before being
   redefined. Before legalization runs, [Extract] can only have been put
   there by the coalescing transformation. *)
type wide_load = {
  l_at : int;
  l_reg : Reg.t;
  l_width : Width.t;
  l_extracts : (int * Rtl.inst) list;  (** ascending body positions *)
}

let find_wide_loads (arr : Rtl.inst array) =
  let n = Array.length arr in
  let res = ref [] in
  for i = 0 to n - 1 do
    match arr.(i).kind with
    | Rtl.Load { dst; src; _ } when src.Rtl.aligned ->
      let extracts = ref [] in
      (try
         for j = i + 1 to n - 1 do
           (match arr.(j).kind with
           | Rtl.Extract { src = s; _ } when Reg.equal s dst ->
             extracts := (j, arr.(j)) :: !extracts
           | _ -> ());
           if List.exists (Reg.equal dst) (Rtl.defs arr.(j).kind) then
             raise Exit
         done
       with Exit -> ());
      if !extracts <> [] then
        res :=
          {
            l_at = i;
            l_reg = dst;
            l_width = src.Rtl.width;
            l_extracts = List.rev !extracts;
          }
          :: !res
    | _ -> ()
  done;
  List.rev !res

(* An aligned store of a buffer register assembled by [Insert]s. The scan
   walks backwards until the buffer's initialisation (its only non-Insert
   definition). *)
type wide_store = {
  s_at : int;
  s_reg : Reg.t;
  s_width : Width.t;
  s_inserts : (int * Rtl.inst) list;  (** ascending body positions *)
}

let find_wide_stores (arr : Rtl.inst array) =
  let res = ref [] in
  for i = Array.length arr - 1 downto 0 do
    match arr.(i).kind with
    | Rtl.Store { src = Rtl.Reg b; dst } when dst.Rtl.aligned ->
      let inserts = ref [] in
      (try
         for j = i - 1 downto 0 do
           match arr.(j).kind with
           | Rtl.Insert { dst = d; _ } when Reg.equal d b ->
             inserts := (j, arr.(j)) :: !inserts
           | k when List.exists (Reg.equal b) (Rtl.defs k) -> raise Exit
           | _ -> ()
         done
       with Exit -> ());
      if !inserts <> [] then
        res :=
          { s_at = i; s_reg = b; s_width = dst.Rtl.width; s_inserts = !inserts }
          :: !res
    | _ -> ()
  done;
  !res

(* --- memory events -------------------------------------------------- *)

(* Every byte-range the loop body touches, with two program points: where
   the original program touched it ([semantic] — for a group member, its
   extract/insert) and where the coalesced code touches memory
   ([effective] — the wide reference). The transformation is a reordering
   exactly when some load/store pair's two orders disagree. *)
type event = {
  part_id : int;
  grp : int option;  (** body index of the wide reference; [None] = narrow *)
  is_store : bool;
  lo : int64;  (** partition-relative byte interval [lo, hi) *)
  hi : int64;
  semantic : int;
  effective : int;
  e_uid : int;
}

let same_group a b =
  match (a.grp, b.grp) with Some x, Some y -> x = y | _ -> false

let flipped a b =
  compare a.semantic b.semantic * compare a.effective b.effective < 0

let overlap a b = Int64.compare a.lo b.hi < 0 && Int64.compare b.lo a.hi < 0

(* --- footprints ----------------------------------------------------- *)

let is_store_ref (r : Partition.ref_info) =
  match r.dir with Partition.Dstore _ -> true | Partition.Dload _ -> false

let bytes_of_refs ?(shift = 0L) refs pred =
  List.fold_left
    (fun acc (r : Partition.ref_info) ->
      if pred r then (
        let acc = ref acc in
        for k = 0 to Width.bytes r.mem.Rtl.width - 1 do
          acc :=
            I64Set.add
              (Int64.add
                 (Int64.add r.addr.Linform.const (Int64.of_int k))
                 shift)
              !acc
        done;
        !acc)
      else acc)
    I64Set.empty refs

(* --- dispatch-block guards ------------------------------------------ *)

(* The straight-line (fall-through) code preceding [Label main_l]: the
   unroller's dispatch block, including the alias checks' internal labels.
   Stops at the nearest instruction with no fall-through. *)
let dispatch_region (f : Func.t) main_l =
  let rec before acc = function
    | [] -> None
    | ({ Rtl.kind = Rtl.Label l; _ } : Rtl.inst) :: _ when l = main_l ->
      Some acc
    | i :: rest -> before (i :: acc) rest
  in
  match before [] f.body with
  | None -> None
  | Some rev_prefix ->
    let rec take acc = function
      | [] -> acc
      | (i : Rtl.inst) :: rest -> (
        match i.kind with
        | Rtl.Jump _ | Rtl.Ret _ -> acc
        | _ -> take (i :: acc) rest)
    in
    Some (take [] rev_prefix)

(* Symbolically execute the dispatch region. Collect every
   [t <- x & mask; if t <> 0 goto safe] pair as an alignment guard (the
   linear form of [x] at that point, over region-entry register values)
   and count the [Ltu -> safe] branches the alias checks end in. Returns
   the guards, the alias-branch count, and the environment at the region's
   end — i.e. at the main loop's entry, used to translate loop-body linear
   forms into region-entry space. *)
let dispatch_guards region safe_l =
  let env = ref (Linform.initial_env ()) in
  let ands = Hashtbl.create 8 in
  let aligns = ref [] in
  let alias = ref 0 in
  List.iter
    (fun (i : Rtl.inst) ->
      (match i.kind with
      | Rtl.Binop (Rtl.And, d, x, Rtl.Imm m)
      | Rtl.Binop (Rtl.And, d, Rtl.Imm m, x) ->
        Hashtbl.replace ands (Reg.id d) (Linform.eval_operand !env x, m)
      | Rtl.Branch { cmp = Rtl.Ne; l = Rtl.Reg t; r = Rtl.Imm 0L; target }
        when target = safe_l -> (
        match Hashtbl.find_opt ands (Reg.id t) with
        | Some g -> aligns := g :: !aligns
        | None -> ())
      | Rtl.Branch { cmp = Rtl.Ltu; target; _ } when target = safe_l ->
        incr alias
      | k -> List.iter (fun r -> Hashtbl.remove ands (Reg.id r)) (Rtl.defs k));
      env := Linform.step !env i.kind)
    region;
  (List.rev !aligns, !alias, !env)

let residue c wb =
  let r = Int64.rem c wb in
  if Int64.compare r 0L < 0 then Int64.add r wb else r

(* A loop-body linear form is over the loop block's entry registers; the
   dispatch guards were evaluated over the region's entry registers. The
   region falls through into the loop, so [env_end] bridges the two
   spaces. [None] when the form involves values the region cannot
   express. *)
let translate env_end (terms, const) =
  let opaque = ref false in
  let form =
    List.fold_left
      (fun acc (s, c) ->
        match s with
        | Linform.Entry r ->
          Linform.add acc (Linform.mul_const (Linform.eval_reg env_end r) c)
        | Linform.Opaque _ ->
          opaque := true;
          acc)
      (Linform.const const) terms
  in
  if !opaque then None else Some form

(* --- the per-loop audit --------------------------------------------- *)

let audit_coalesced ?analysis ~facts (f : Func.t) ~(machine : Machine.t)
    (r : Coalesce.loop_report) main_l safe_l =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let cfg =
    match analysis with
    | Some am -> Mac_dataflow.Analysis.cfg am
    | None -> Cfg.build f
  in
  (* Re-verify every elision certificate from the output RTL before
     anything else: a guard the coalescer discharged statically is only
     acceptable if this independent replay agrees. Verified certificates
     then stand in for the dynamic guards the coverage checks below would
     otherwise demand. *)
  let module Disambig = Mac_core.Disambig in
  let verified_aligns = ref [] and verified_aliases = ref [] in
  List.iter
    (fun (e : Disambig.elision) ->
      let res =
        match e.Disambig.cert with
        | Disambig.Align c ->
          Result.map
            (fun () -> verified_aligns := c :: !verified_aligns)
            (Disambig.verify_align ~facts ~cfg ~main_label:main_l c)
        | Disambig.Alias c ->
          Result.map
            (fun () -> verified_aliases := c :: !verified_aliases)
            (Disambig.verify_alias ~facts ~cfg ~main_label:main_l c)
      in
      match res with
      | Ok () -> ()
      | Error msg ->
        add
          (errorf "loop %s: elision certificate for %s rejected: %s"
             r.Coalesce.header e.Disambig.target msg))
    r.Coalesce.elisions;
  (match (interior cfg main_l, interior cfg safe_l) with
  | None, _ -> add (errorf "loop %s: main loop %s not found" r.header main_l)
  | _, None -> add (errorf "loop %s: safe loop %s not found" r.header safe_l)
  | Some main_insts, Some safe_insts ->
    let arr = Array.of_list main_insts in
    Array.iter
      (fun (i : Rtl.inst) ->
        match i.kind with
        | Rtl.Call _ | Rtl.Ret _ ->
          add
            (errorf ~uid:i.uid "loop %s: %s inside the coalesced loop body"
               r.header (Rtl.to_string i.kind))
        | _ -> ())
      arr;
    let analysis = Partition.analyze main_insts in
    let analysis_safe = Partition.analyze safe_insts in
    let refs = Hashtbl.create 32 in
    List.iter
      (fun (p : Partition.t) ->
        List.iter
          (fun (ri : Partition.ref_info) -> Hashtbl.replace refs ri.index (p, ri))
          p.Partition.refs)
      analysis.Partition.partitions;
    let wloads = find_wide_loads arr in
    let wstores = find_wide_stores arr in
    let events = ref [] in
    let aligns_required = ref [] in
    (* windows and extract/insert membership *)
    List.iter
      (fun wl ->
        match Hashtbl.find_opt refs wl.l_at with
        | None ->
          add
            (errorf ~uid:arr.(wl.l_at).uid
               "loop %s: wide load escaped the partition analysis" r.header)
        | Some (p, ri) ->
          let wb = Width.bytes wl.l_width in
          if not (Machine.legal_load machine wl.l_width ~aligned:true) then
            add
              (errorf ~uid:arr.(wl.l_at).uid
                 "loop %s: wide load of width %a is not legal on %s" r.header
                 Width.pp wl.l_width machine.Machine.name);
          if wb > 1 then
            aligns_required :=
              (p.Partition.terms, ri.addr.Linform.const, wb)
              :: !aligns_required;
          List.iter
            (fun (j, (inst : Rtl.inst)) ->
              match inst.kind with
              | Rtl.Extract { pos = Rtl.Imm pv; width; _ } ->
                let mb = Width.bytes width in
                if
                  Int64.compare pv 0L < 0
                  || Int64.compare (Int64.add pv (Int64.of_int mb))
                       (Int64.of_int wb)
                     > 0
                then
                  add
                    (errorf ~uid:inst.uid
                       "loop %s: extract at byte %Ld of width %a escapes its \
                        %a-wide load window"
                       r.header pv Width.pp width Width.pp wl.l_width);
                let lo = Int64.add ri.addr.Linform.const pv in
                events :=
                  {
                    part_id = p.Partition.id;
                    grp = Some wl.l_at;
                    is_store = false;
                    lo;
                    hi = Int64.add lo (Int64.of_int mb);
                    semantic = j;
                    effective = wl.l_at;
                    e_uid = inst.uid;
                  }
                  :: !events
              | _ ->
                add
                  (errorf ~uid:inst.uid
                     "loop %s: extract with a run-time byte position cannot \
                      be audited"
                     r.header))
            wl.l_extracts)
      wloads;
    List.iter
      (fun ws ->
        match Hashtbl.find_opt refs ws.s_at with
        | None ->
          add
            (errorf ~uid:arr.(ws.s_at).uid
               "loop %s: wide store escaped the partition analysis" r.header)
        | Some (p, ri) ->
          let wb = Width.bytes ws.s_width in
          if not (Machine.legal_store machine ws.s_width ~aligned:true) then
            add
              (errorf ~uid:arr.(ws.s_at).uid
                 "loop %s: wide store of width %a is not legal on %s" r.header
                 Width.pp ws.s_width machine.Machine.name);
          if wb > 1 then
            aligns_required :=
              (p.Partition.terms, ri.addr.Linform.const, wb)
              :: !aligns_required;
          let covered = Array.make wb false in
          List.iter
            (fun (j, (inst : Rtl.inst)) ->
              match inst.kind with
              | Rtl.Insert { pos = Rtl.Imm pv; width; _ } ->
                let mb = Width.bytes width in
                if
                  Int64.compare pv 0L < 0
                  || Int64.compare (Int64.add pv (Int64.of_int mb))
                       (Int64.of_int wb)
                     > 0
                then
                  add
                    (errorf ~uid:inst.uid
                       "loop %s: insert at byte %Ld of width %a escapes its \
                        %a-wide store window"
                       r.header pv Width.pp width Width.pp ws.s_width)
                else
                  for k = 0 to mb - 1 do
                    covered.(Int64.to_int pv + k) <- true
                  done;
                let lo = Int64.add ri.addr.Linform.const pv in
                events :=
                  {
                    part_id = p.Partition.id;
                    grp = Some ws.s_at;
                    is_store = true;
                    lo;
                    hi = Int64.add lo (Int64.of_int mb);
                    semantic = j;
                    effective = ws.s_at;
                    e_uid = inst.uid;
                  }
                  :: !events
              | _ ->
                add
                  (errorf ~uid:inst.uid
                     "loop %s: insert with a run-time byte position cannot be \
                      audited"
                     r.header))
            ws.s_inserts;
          Array.iteri
            (fun k ok ->
              if not ok then
                add
                  (errorf ~uid:arr.(ws.s_at).uid
                     "loop %s: wide store writes byte %d of its window that \
                      no member store supplied"
                     r.header k))
            covered)
      wstores;
    (* extracts/inserts that belong to no group read dead or foreign data *)
    let member_indices = Hashtbl.create 32 in
    List.iter
      (fun wl ->
        List.iter (fun (j, _) -> Hashtbl.replace member_indices j ()) wl.l_extracts)
      wloads;
    List.iter
      (fun ws ->
        List.iter (fun (j, _) -> Hashtbl.replace member_indices j ()) ws.s_inserts)
      wstores;
    Array.iteri
      (fun j (i : Rtl.inst) ->
        if not (Hashtbl.mem member_indices j) then
          match i.kind with
          | Rtl.Extract _ ->
            add
              (errorf ~uid:i.uid
                 "loop %s: extract does not read a live wide load (wide value \
                  clobbered or load missing)"
                 r.header)
          | Rtl.Insert _ ->
            add
              (errorf ~uid:i.uid
                 "loop %s: insert feeds no wide store (buffer clobbered or \
                  store missing)"
                 r.header)
          | _ -> ())
      arr;
    (* untouched narrow references *)
    let wide_indices = Hashtbl.create 8 in
    List.iter (fun wl -> Hashtbl.replace wide_indices wl.l_at ()) wloads;
    List.iter (fun ws -> Hashtbl.replace wide_indices ws.s_at ()) wstores;
    Hashtbl.iter
      (fun idx ((p : Partition.t), (ri : Partition.ref_info)) ->
        if not (Hashtbl.mem wide_indices idx) then
          events :=
            {
              part_id = p.Partition.id;
              grp = None;
              is_store = is_store_ref ri;
              lo = ri.addr.Linform.const;
              hi =
                Int64.add ri.addr.Linform.const
                  (Int64.of_int (Width.bytes ri.mem.Rtl.width));
              semantic = idx;
              effective = idx;
              e_uid = ri.inst.uid;
            }
            :: !events)
      refs;
    (* reorderings: same-partition overlaps are errors, cross-partition
       ones demand an alias guard *)
    let alias_required = ref PairSet.empty in
    let evs = Array.of_list !events in
    for a = 0 to Array.length evs - 1 do
      for b = a + 1 to Array.length evs - 1 do
        let ea = evs.(a) and eb = evs.(b) in
        if
          (ea.is_store || eb.is_store)
          && (not (same_group ea eb))
          && flipped ea eb
        then
          if ea.part_id = eb.part_id then (
            if overlap ea eb then
              add
                (errorf ~uid:ea.e_uid
                   "loop %s: coalescing reordered overlapping references \
                    (bytes %Ld..%Ld and %Ld..%Ld of the same partition)"
                   r.header ea.lo ea.hi eb.lo eb.hi))
          else
            alias_required :=
              PairSet.add
                (min ea.part_id eb.part_id, max ea.part_id eb.part_id)
                !alias_required
      done
    done;
    (* the report's group counts must match what is actually there *)
    let nl = List.length wloads and ns = List.length wstores in
    if nl < r.load_groups then
      add
        (errorf "loop %s: report claims %d load group(s) but only %d wide \
                 load(s) are present"
           r.header r.load_groups nl);
    if nl > r.load_groups then
      add
        (warningf
           "loop %s: %d wide load(s) present but the report claims %d"
           r.header nl r.load_groups);
    if ns < r.store_groups then
      add
        (errorf "loop %s: report claims %d store group(s) but only %d wide \
                 store(s) are present"
           r.header r.store_groups ns);
    if ns > r.store_groups then
      add
        (warningf
           "loop %s: %d wide store(s) present but the report claims %d"
           r.header ns r.store_groups);
    (* footprint equivalence against the safe loop *)
    let factor = Int64.of_int r.factor in
    List.iter
      (fun (ps : Partition.t) ->
        let pm =
          List.find_opt
            (fun (p : Partition.t) ->
              Linform.same_terms
                { Linform.const = 0L; terms = p.terms }
                { Linform.const = 0L; terms = ps.terms })
            analysis.Partition.partitions
        in
        match pm with
        | None ->
          if List.exists is_store_ref ps.refs then
            add
              (errorf
                 "loop %s: the stores of partition %a vanished from the \
                  coalesced loop"
                 r.header pp_terms ps.terms)
          else
            add
              (warningf
                 "loop %s: the loads of partition %a vanished from the \
                  coalesced loop"
                 r.header pp_terms ps.terms)
        | Some pm -> (
          match Partition.advance analysis_safe ps with
          | None -> ()
          | Some adv_s ->
            (match Partition.advance analysis pm with
            | Some adv_m when Int64.equal adv_m (Int64.mul factor adv_s) -> ()
            | Some adv_m ->
              add
                (errorf
                   "loop %s: partition %a advances %Ld bytes per coalesced \
                    iteration, expected %d * %Ld"
                   r.header pp_terms ps.terms adv_m r.factor adv_s)
            | None ->
              add
                (errorf
                   "loop %s: partition %a has no constant advance in the \
                    coalesced loop"
                   r.header pp_terms ps.terms));
            let unrolled pred =
              let one = bytes_of_refs ps.refs pred in
              let acc = ref I64Set.empty in
              for k = 0 to r.factor - 1 do
                acc :=
                  I64Set.union !acc
                    (I64Set.map
                       (fun o -> Int64.add o (Int64.mul (Int64.of_int k) adv_s))
                       one)
              done;
              !acc
            in
            let main_stores = bytes_of_refs pm.refs is_store_ref in
            let want_stores = unrolled is_store_ref in
            if not (I64Set.equal main_stores want_stores) then (
              let missing = I64Set.diff want_stores main_stores in
              let extra = I64Set.diff main_stores want_stores in
              let sample s =
                match I64Set.min_elt_opt s with
                | Some o -> Int64.to_string o
                | None -> "-"
              in
              add
                (errorf
                   "loop %s: partition %a store footprint differs from %d \
                    safe iterations (%d byte(s) missing, first %s; %d \
                    extra, first %s)"
                   r.header pp_terms ps.terms r.factor
                   (I64Set.cardinal missing) (sample missing)
                   (I64Set.cardinal extra) (sample extra)));
            let main_loads =
              bytes_of_refs pm.refs (fun ri -> not (is_store_ref ri))
            in
            let want_loads = unrolled (fun ri -> not (is_store_ref ri)) in
            (match (I64Set.min_elt_opt want_loads, I64Set.max_elt_opt want_loads)
            with
            | Some lo, Some hi ->
              let slack = Int64.of_int (Width.bytes machine.Machine.word - 1) in
              let lo = Int64.sub lo slack and hi = Int64.add hi slack in
              I64Set.iter
                (fun o ->
                  if Int64.compare o lo < 0 || Int64.compare o hi > 0 then
                    add
                      (errorf
                         "loop %s: coalesced loop reads byte %Ld of \
                          partition %a, outside the envelope [%Ld, %Ld] of \
                          %d safe iterations"
                         r.header o pp_terms ps.terms lo hi r.factor))
                main_loads
            | _ ->
              if not (I64Set.is_empty main_loads) then
                add
                  (errorf
                     "loop %s: coalesced loop reads partition %a that %d \
                      safe iterations never read"
                     r.header pp_terms ps.terms r.factor))))
      analysis_safe.Partition.partitions;
    (* the run-time guards in the dispatch block *)
    match dispatch_region f main_l with
    | None -> add (errorf "loop %s: no dispatch code precedes the main loop" r.header)
    | Some region ->
      let guards, alias_found, env_end = dispatch_guards region safe_l in
      let required =
        (* one guard per (partition, window residue, width) class *)
        List.sort_uniq Stdlib.compare
          (List.map
             (fun (terms, c, wb) -> (terms, residue c (Int64.of_int wb), wb))
             !aligns_required)
      in
      List.iter
        (fun (terms, res, wb) ->
          let wbL = Int64.of_int wb in
          (* a class is covered either by a dynamic guard in the dispatch
             code or by a certificate this audit just re-verified *)
          let certified =
            List.exists
              (fun (c : Disambig.align_cert) ->
                terms_eq c.Disambig.ac_terms terms
                && c.Disambig.ac_wide = wb
                && Int64.equal (residue c.Disambig.ac_window wbL) res)
              !verified_aligns
          in
          if not certified then
            match translate env_end (terms, res) with
            | None ->
              add
                (warningf
                   "loop %s: alignment of the %d-byte window of partition %a \
                    cannot be audited (opaque base)"
                   r.header wb pp_terms terms)
            | Some want ->
              let matched =
                List.exists
                  (fun ((g : Linform.t), mask) ->
                    Int64.equal mask (Int64.sub wbL 1L)
                    && Linform.same_terms g want
                    && Int64.equal (residue g.Linform.const wbL)
                         (residue want.Linform.const wbL))
                  guards
              in
              if not matched then
                add
                  (errorf
                     "loop %s: no alignment guard dispatches the %d-byte \
                      window of partition %a to the safe loop"
                     r.header wb pp_terms terms))
        required;
      let terms_of_part id =
        List.find_map
          (fun (p : Partition.t) ->
            if p.Partition.id = id then Some p.Partition.terms else None)
          analysis.Partition.partitions
      in
      let pair_certified (i, j) =
        match (terms_of_part i, terms_of_part j) with
        | Some ti, Some tj ->
          List.exists
            (fun (c : Disambig.alias_cert) ->
              (terms_eq c.Disambig.ca.Disambig.s_terms ti
              && terms_eq c.Disambig.cb.Disambig.s_terms tj)
              || (terms_eq c.Disambig.ca.Disambig.s_terms tj
                 && terms_eq c.Disambig.cb.Disambig.s_terms ti))
            !verified_aliases
        | _ -> false
      in
      let need =
        PairSet.cardinal
          (PairSet.filter (fun p -> not (pair_certified p)) !alias_required)
      in
      if alias_found < need then
        add
          (errorf
             "loop %s: %d cross-partition reordering(s) need an alias guard \
              but only %d alias branch(es) reach the safe loop"
             r.header need alias_found));
  List.rev !diags

let audit_loop ?analysis ~facts f ~machine (r : Coalesce.loop_report) =
  match r.Coalesce.status with
  | Coalesce.Coalesced -> (
    match (r.main_label, r.safe_label) with
    | Some main_l, Some safe_l ->
      audit_coalesced ?analysis ~facts f ~machine r main_l safe_l
    | _ ->
      [
        Diagnostic.errorf ~pass
          "loop %s: coalesced report carries no main/safe loop labels"
          r.header;
      ])
  | _ -> []

let regions reports =
  List.filter_map
    (fun (r : Coalesce.loop_report) ->
      Option.map
        (fun _ -> (r.header, "coalesce certificate (audited at Vfull)"))
        r.main_label)
    reports

let run ?analysis ?(facts = Mac_core.Disambig.empty) f ~machine ~reports =
  List.concat_map (audit_loop ?analysis ~facts f ~machine) reports
  |> List.map (Diagnostic.with_func f.Func.name)
