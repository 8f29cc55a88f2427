open Mac_rtl

(* Pending deferred increments per register. *)
type pending = int64 Reg.Map.t

let self_add (k : Rtl.kind) =
  match k with
  | Rtl.Binop (Rtl.Add, d, Rtl.Reg s, Rtl.Imm v)
  | Rtl.Binop (Rtl.Add, d, Rtl.Imm v, Rtl.Reg s)
    when Reg.equal d s ->
    Some (d, v)
  | Rtl.Binop (Rtl.Sub, d, Rtl.Reg s, Rtl.Imm v) when Reg.equal d s ->
    Some (d, Int64.neg v)
  | _ -> None

let run (f : Func.t) =
  let out = ref [] in
  let emit (i : Rtl.inst) = out := i :: !out in
  let emit_kind k = emit (Func.inst f k) in
  let pending = ref (Reg.Map.empty : pending) in
  let flush_reg r =
    match Reg.Map.find_opt r !pending with
    | Some d ->
      pending := Reg.Map.remove r !pending;
      if not (Int64.equal d 0L) then
        emit_kind (Rtl.Binop (Rtl.Add, r, Rtl.Reg r, Rtl.Imm d))
    | None -> ()
  in
  let flush_all () =
    Reg.Map.iter
      (fun r d ->
        if not (Int64.equal d 0L) then
          emit_kind (Rtl.Binop (Rtl.Add, r, Rtl.Reg r, Rtl.Imm d)))
      !pending;
    pending := Reg.Map.empty
  in
  let offset_of r =
    Option.value (Reg.Map.find_opt r !pending) ~default:0L
  in
  let process (i : Rtl.inst) =
    match self_add i.kind with
    | Some (r, v) ->
      (* defer *)
      pending := Reg.Map.add r (Int64.add (offset_of r) v) !pending
    | None -> (
      (* Memory references absorb the pending offset of their base; every
         other use (or redefinition) of a pending register forces the
         combined update to materialise first. *)
      let absorbed =
        match i.kind with
        | Rtl.Load { dst; src; sign } when not (Reg.equal dst src.base) ->
          let off = offset_of src.base in
          if Int64.equal off 0L then None
          else
            Some
              (Rtl.Load
                 { dst; src = { src with disp = Int64.add src.disp off };
                   sign })
        | Rtl.Store { src; dst } -> (
          (* the stored value itself must not be a pending register *)
          let value_pending =
            match src with
            | Rtl.Reg r -> Reg.Map.mem r !pending
            | Rtl.Imm _ -> false
          in
          if value_pending then None
          else
            let off = offset_of dst.base in
            if Int64.equal off 0L then None
            else
              Some
                (Rtl.Store
                   { src; dst = { dst with disp = Int64.add dst.disp off } }))
        | _ -> None
      in
      (* A redefinition makes a deferred update unobservable: the deleted
         increments would be overwritten anyway, so the pending entry is
         simply dropped. *)
      let drop_defs k =
        List.iter
          (fun r -> pending := Reg.Map.remove r !pending)
          (Rtl.defs k)
      in
      match absorbed with
      | Some k ->
        drop_defs k;
        emit { i with kind = k }
      | None ->
        (* flush any pending register this instruction observes; branches
           and labels flush everything *)
        (match i.kind with
        | Rtl.Label _ | Rtl.Jump _ | Rtl.Branch _ | Rtl.Ret _ | Rtl.Call _
          ->
          flush_all ()
        | k ->
          List.iter flush_reg (Rtl.uses k);
          drop_defs k);
        emit i)
  in
  List.iter process f.body;
  flush_all ();
  (* An increment no memory reference absorbed comes back unmoved, under
     a fresh uid: only a different kind sequence is a rewrite, so a
     converged function keeps its body (and its uids) untouched. *)
  let body = List.rev !out in
  let changed =
    not
      (List.equal
         (fun (a : Rtl.inst) (b : Rtl.inst) -> a.kind = b.kind)
         body f.body)
  in
  if changed then Func.set_body f body;
  changed
