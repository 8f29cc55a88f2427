open Mac_rtl
module Loop = Mac_cfg.Loop

type iv = { reg : Reg.t; step : int64 }

let env_after_body (s : Loop.simple) =
  List.fold_left
    (fun env (i : Rtl.inst) -> Linform.step env i.kind)
    (Linform.initial_env ()) s.body

let defs_in_body (s : Loop.simple) =
  List.concat_map (fun (i : Rtl.inst) -> Rtl.defs i.kind) s.body

let basic_ivs (s : Loop.simple) =
  let env = env_after_body s in
  defs_in_body s
  |> List.sort_uniq Reg.compare
  |> List.filter_map (fun r ->
         let delta = Linform.sub (Linform.eval_reg env r) (Linform.entry r) in
         match Linform.as_const delta with
         | Some step when not (Int64.equal step 0L) -> Some { reg = r; step }
         | _ -> None)

type trip = { iv : iv; offset : int64; bound : Rtl.operand; cmp : Rtl.cmp }

let mirror = function
  | Rtl.Lt -> Rtl.Gt
  | Rtl.Le -> Rtl.Ge
  | Rtl.Gt -> Rtl.Lt
  | Rtl.Ge -> Rtl.Le
  | Rtl.Ltu -> Rtl.Gtu
  | Rtl.Leu -> Rtl.Geu
  | Rtl.Gtu -> Rtl.Ltu
  | Rtl.Geu -> Rtl.Leu
  | (Rtl.Eq | Rtl.Ne) as c -> c

let trip_of (s : Loop.simple) =
  let env = env_after_body s in
  let defs = Reg.Set.of_list (defs_in_body s) in
  (* The value a branch operand holds at the bottom of the body, as a
     linear form over body-entry register values. *)
  let form_of = function
    | Rtl.Imm v -> Linform.const v
    | Rtl.Reg r -> Linform.eval_reg env r
  in
  (* An operand usable at the dispatch point: it must be loop-invariant
     (its value at the bottom equals its entry value) and, if a register,
     not defined inside the body (the dispatch runs before the body). *)
  let invariant_at_entry op =
    match op with
    | Rtl.Imm _ -> true
    | Rtl.Reg r ->
      (not (Reg.Set.mem r defs))
      && Linform.equal (Linform.eval_reg env r) (Linform.entry r)
  in
  (* A branch side that is [entry(iv) + offset] for an advancing iv with
     unit coefficient. *)
  let induction_side op =
    let form = form_of op in
    match form.Linform.terms with
    | [ (Linform.Entry r, 1L) ] -> (
      let delta =
        Linform.sub (Linform.eval_reg env r) (Linform.entry r)
      in
      match Linform.as_const delta with
      | Some step when not (Int64.equal step 0L) ->
        Some ({ reg = r; step }, form.Linform.const)
      | _ -> None)
    | _ -> None
  in
  match s.back_branch.kind with
  | Rtl.Branch { cmp; l; r; target = _ } -> (
    let candidate =
      match (induction_side l, invariant_at_entry r) with
      | Some (iv, offset), true -> Some (iv, offset, r, cmp)
      | _ -> (
        match (induction_side r, invariant_at_entry l) with
        | Some (iv, offset), true -> Some (iv, offset, l, mirror cmp)
        | _ -> None)
    in
    match candidate with
    | Some (iv, offset, bound, cmp) -> (
      let up = Int64.compare iv.step 0L > 0 in
      match cmp with
      | Rtl.Lt | Rtl.Ltu when up -> Some { iv; offset; bound; cmp }
      | Rtl.Gt | Rtl.Gtu when not up -> Some { iv; offset; bound; cmp }
      | Rtl.Ne when not (Int64.equal iv.step 0L) ->
        Some { iv; offset; bound; cmp }
      | _ -> None)
    | None -> None)
  | _ -> None
