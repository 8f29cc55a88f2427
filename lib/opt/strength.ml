open Mac_rtl
module Loop = Mac_cfg.Loop

type stats = {
  loops : int;
  pointers : int;
  refs_rewritten : int;
  branches_rewritten : int;
}

let zero = { loops = 0; pointers = 0; refs_rewritten = 0;
             branches_rewritten = 0 }

(* A memory reference of the body with its address linear form. *)
type sref = { index : int; mem : Rtl.mem; form : Linform.t }

let refs_of_body body =
  let env = ref (Linform.initial_env ()) in
  List.mapi
    (fun index (i : Rtl.inst) ->
      let r =
        match Rtl.mem_of i.kind with
        | Some mem -> Some { index; mem; form = Linform.address_of !env mem }
        | None -> None
      in
      env := Linform.step !env i.kind;
      r)
    body
  |> List.filter_map Fun.id

let env_after body =
  List.fold_left
    (fun env (i : Rtl.inst) -> Linform.step env i.kind)
    (Linform.initial_env ()) body

(* Per-iteration advance of a symbolic term list, when constant. *)
let advance_of env_end terms =
  List.fold_left
    (fun acc (sym, coeff) ->
      match (acc, sym) with
      | None, _ -> None
      | Some total, Linform.Opaque _ ->
        if Int64.equal coeff 0L then Some total else None
      | Some total, Linform.Entry r -> (
        let delta =
          Linform.sub (Linform.eval_reg env_end r) (Linform.entry r)
        in
        match Linform.as_const delta with
        | Some d -> Some (Int64.add total (Int64.mul coeff d))
        | None -> None))
    (Some 0L) terms

(* The loop header must be reachable only by fallthrough from the preheader
   and by its own back branch, so that code inserted just before the label
   executes exactly once, on entry. *)
let single_entry (f : Func.t) (s : Loop.simple) =
  List.for_all
    (fun (i : Rtl.inst) ->
      (not (List.mem s.header_label (Rtl.branch_targets i.kind)))
      || i.uid = s.back_branch.uid)
    f.body

let terms_equal t1 t2 =
  Linform.same_terms
    { Linform.const = 0L; terms = t1 }
    { Linform.const = 0L; terms = t2 }

(* Try to rewrite the back branch to a derived-pointer comparison, given a
   pointer [p] initialised to the symbolic base [terms] (const 0) with
   per-iteration advance [a]. Returns preheader kinds + the new branch. *)
let pointer_branch f (s : Loop.simple) (trip : Induction.trip) ~p ~advance =
  let step = trip.iv.step in
  if Int64.equal advance 0L then None
  else if not (Int64.equal (Int64.rem advance step) 0L) then None
  else
    let k = Int64.div advance step in
    let up = Int64.compare advance 0L > 0 in
    let cmp' =
      match trip.cmp with
      | Rtl.Lt | Rtl.Ltu -> if up then Some Rtl.Ltu else None
      | Rtl.Gt | Rtl.Gtu -> if up then None else Some Rtl.Gtu
      | Rtl.Ne -> Some Rtl.Ne
      | _ -> None
    in
    match cmp' with
    | None -> None
    | Some cmp' ->
      let adjust = Int64.sub trip.offset step in
      let dist = Func.fresh_reg f in
      let total = Func.fresh_reg f in
      let endp = Func.fresh_reg f in
      let counting_up = Int64.compare step 0L > 0 in
      let dist_code =
        (if counting_up then
           [ Rtl.Binop (Rtl.Sub, dist, trip.bound, Rtl.Reg trip.iv.reg) ]
         else [ Rtl.Binop (Rtl.Sub, dist, Rtl.Reg trip.iv.reg, trip.bound) ])
        @
        if Int64.equal adjust 0L then []
        else if counting_up then
          [ Rtl.Binop (Rtl.Sub, dist, Rtl.Reg dist, Rtl.Imm adjust) ]
        else [ Rtl.Binop (Rtl.Add, dist, Rtl.Reg dist, Rtl.Imm adjust) ]
      in
      let scale_code =
        [ Rtl.Binop (Rtl.Mul, total, Rtl.Reg dist, Rtl.Imm k);
          Rtl.Binop (Rtl.Add, endp, Rtl.Reg p, Rtl.Reg total) ]
      in
      let branch =
        Rtl.Branch
          { cmp = cmp'; l = Rtl.Reg p; r = Rtl.Reg endp;
            target = s.header_label }
      in
      Some (dist_code @ scale_code, branch)

(* Does the rewritten body still need the counter? Only the canonical
   update chain may mention it: [iv = iv + c], or [t = iv + c; iv = t]
   with the branch on [t]. *)
let counter_only_drives_branch body (trip : Induction.trip) =
  let iv = trip.iv.reg in
  let ok (i : Rtl.inst) =
    if not (List.exists (Reg.equal iv) (Rtl.uses i.kind)) then true
    else
      match i.kind with
      | Rtl.Binop (Rtl.Add, _, Rtl.Reg s, Rtl.Imm _)
      | Rtl.Binop (Rtl.Add, _, Rtl.Imm _, Rtl.Reg s)
      | Rtl.Binop (Rtl.Sub, _, Rtl.Reg s, Rtl.Imm _) ->
        Reg.equal s iv
      | Rtl.Move (d, Rtl.Reg s) -> Reg.equal s iv && Reg.equal d iv
      | _ -> false
  in
  (* The increment's destination (when distinct from iv) may in turn feed
     only the move back into iv; anything else keeps the counter alive and
     we simply leave the branch as is. *)
  let temp_dsts =
    List.filter_map
      (fun (i : Rtl.inst) ->
        match i.kind with
        | Rtl.Binop ((Rtl.Add | Rtl.Sub), d, Rtl.Reg s, Rtl.Imm _)
          when Reg.equal s iv && not (Reg.equal d iv) ->
          Some d
        | _ -> None)
      body
  in
  let temp_ok t (i : Rtl.inst) =
    if not (List.exists (Reg.equal t) (Rtl.uses i.kind)) then true
    else match i.kind with Rtl.Move (d, Rtl.Reg _) -> Reg.equal d iv | _ -> false
  in
  List.for_all ok body
  && List.for_all (fun t -> List.for_all (temp_ok t) body) temp_dsts

let process_loop f stats (s : Loop.simple) =
  if not (single_entry f s) then stats
  else begin
    let env_end = env_after s.body in
    let ivs = Induction.basic_ivs s in
    let is_iv r = List.exists (fun (iv : Induction.iv) -> Reg.equal iv.reg r) ivs in
    let refs = refs_of_body s.body in
    (* Partition by symbolic terms; skip partitions already in pointer form
       (their base register itself advances). *)
    let partitions =
      List.fold_left
        (fun acc r ->
          match
            List.find_opt (fun (t, _) -> terms_equal t r.form.Linform.terms) acc
          with
          | Some _ ->
            List.map
              (fun (t, rs) ->
                if terms_equal t r.form.Linform.terms then (t, rs @ [ r ])
                else (t, rs))
              acc
          | None -> acc @ [ (r.form.Linform.terms, [ r ]) ])
        [] refs
      |> List.filter (fun (terms, rs) ->
             terms <> []
             && List.for_all (fun r -> not (is_iv r.mem.base)) rs
             && advance_of env_end terms <> None)
    in
    let trip = Induction.trip_of s in
    (* Existing advancing pointers already used as reference bases — after
       a first strength-reduction + cleanup round these are the derived
       pointers, and the only remaining job is the branch rewrite. *)
    let existing_pointers =
      List.filter_map
        (fun r ->
          match
            List.find_opt
              (fun (iv : Induction.iv) -> Reg.equal iv.reg r.mem.base)
              ivs
          with
          | Some iv -> (
            match trip with
            | Some t when Reg.equal iv.reg t.iv.reg -> None
            | _ -> Some (iv.reg, iv.step))
          | None -> None)
        refs
    in
    if partitions = [] && existing_pointers = [] then stats
    else begin
      (* Build preheader code and rewrite map. *)
      let preheader = ref [] in
      let rewrites : (int, Rtl.mem) Hashtbl.t = Hashtbl.create 8 in
      let updates = ref [] in
      let pointers = ref 0 and refs_rewritten = ref 0 in
      let pointer_of_partition = ref [] in
      List.iter
        (fun (terms, rs) ->
          let advance = Option.get (advance_of env_end terms) in
          match
            Linform.materialize f { Linform.const = 0L; terms }
          with
          | None -> ()
          | Some (code, op) ->
            let p =
              match (op, code, advance) with
              | Rtl.Reg r, [], 0L ->
                (* already a stable register; reuse it directly *) r
              | _ ->
                let p = Func.fresh_reg f in
                preheader := !preheader @ code @ [ Rtl.Move (p, op) ];
                p
            in
            incr pointers;
            pointer_of_partition := (terms, (p, advance)) :: !pointer_of_partition;
            List.iter
              (fun r ->
                Hashtbl.replace rewrites r.index
                  { r.mem with Rtl.base = p; disp = r.form.Linform.const };
                incr refs_rewritten)
              rs;
            if not (Int64.equal advance 0L) then
              updates := !updates @ [ Rtl.Binop (Rtl.Add, p, Rtl.Reg p,
                                                 Rtl.Imm advance) ])
        partitions;
      begin
        (* Rewrite the body. *)
        let new_body =
          List.mapi
            (fun idx (i : Rtl.inst) ->
              match (Hashtbl.find_opt rewrites idx, i.kind) with
              | Some mem, Rtl.Load l -> { i with kind = Rtl.Load { l with src = mem } }
              | Some mem, Rtl.Store st ->
                { i with kind = Rtl.Store { st with dst = mem } }
              | _ -> i)
            s.body
        in
        (* Optional induction-variable elimination. *)
        let pointer_candidates =
          List.filter_map
            (fun (_, (p, a)) -> if Int64.equal a 0L then None else Some (p, a))
            !pointer_of_partition
          @ existing_pointers
        in
        let branch_preheader, new_branch, branches_rewritten =
          match trip with
          | Some trip when counter_only_drives_branch new_body trip -> (
            match pointer_candidates with
            | (p, advance) :: _ -> (
              match pointer_branch f s trip ~p ~advance with
              | Some (code, br) -> (code, Func.inst f br, 1)
              | None -> ([], s.back_branch, 0))
            | [] -> ([], s.back_branch, 0))
          | _ -> ([], s.back_branch, 0)
        in
        (* Splice: [pre][preheader code][Label][new_body][updates][branch] *)
        let rec splice acc = function
          | [] -> List.rev acc
          | ({ Rtl.kind = Rtl.Label l; _ } as li) :: rest
            when String.equal l s.header_label ->
            let rec drop_old = function
              | (i : Rtl.inst) :: rest' when i.uid = s.back_branch.uid ->
                rest'
              | _ :: rest' -> drop_old rest'
              | [] -> []
            in
            let tail = drop_old rest in
            List.rev_append acc
              (List.map (Func.inst f) (!preheader @ branch_preheader)
              @ (li :: new_body)
              @ List.map (Func.inst f) !updates
              @ (new_branch :: tail))
          | i :: rest -> splice (i :: acc) rest
        in
        if Hashtbl.length rewrites = 0 && branches_rewritten = 0 then stats
        else begin
          Func.set_body f (splice [] f.body);
          {
            loops = stats.loops + 1;
            pointers = stats.pointers + !pointers;
            refs_rewritten = stats.refs_rewritten + !refs_rewritten;
            branches_rewritten =
              stats.branches_rewritten + branches_rewritten;
          }
        end
      end
    end
  end

let run ?am (f : Func.t) =
  let am =
    match am with Some am -> am | None -> Mac_dataflow.Analysis.create f
  in
  let processed = Hashtbl.create 8 in
  let stats = ref zero in
  let rec iterate () =
    let cfg = Mac_dataflow.Analysis.cfg am in
    let loops = Mac_dataflow.Analysis.loops am in
    let candidate =
      List.find_map
        (fun l ->
          match Mac_cfg.Loop.simple_of cfg l with
          | Some s when not (Hashtbl.mem processed s.header_label) -> Some s
          | _ -> None)
        loops
    in
    match candidate with
    | None -> ()
    | Some s ->
      Hashtbl.add processed s.header_label ();
      let before = !stats in
      stats := process_loop f !stats s;
      if !stats <> before then
        (* The rewrite inserts plain preheader/body instructions and
           swaps the back-branch condition in place: no labels move and
           no edges change, so the block-index structures survive and
           only the CFG view (and dataflow facts) must be rebuilt. *)
        Mac_dataflow.Analysis.invalidate am
          ~preserves:
            [ Mac_dataflow.Analysis.Dom; Mac_dataflow.Analysis.Loops ];
      iterate ()
  in
  iterate ();
  !stats
