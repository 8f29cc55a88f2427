open Mac_rtl
module Liveness = Mac_dataflow.Liveness

let removable (i : Rtl.inst) live_after =
  match i.kind with
  | Rtl.Nop -> true
  | k when Rtl.has_side_effect k -> false
  | k -> (
    match Rtl.defs k with
    | [] -> true (* no side effect, defines nothing: dead *)
    | defs -> not (List.exists live_after defs))

let once am (f : Func.t) =
  let cfg = Mac_dataflow.Analysis.cfg am in
  let live = Mac_dataflow.Analysis.liveness am in
  let reach = Mac_cfg.Cfg.reachable cfg in
  let changed = ref false in
  let dropped_block = ref false in
  let body =
    Array.to_list cfg.blocks
    |> List.concat_map (fun (b : Mac_cfg.Cfg.block) ->
           if not reach.(b.index) then begin
             (* Unreachable block: drop it entirely, label included. *)
             if b.insts <> [] then begin
               changed := true;
               dropped_block := true
             end;
             []
           end
           else
             (* Reverse-order fold; consing builds the forward order. *)
             Liveness.fold_live_after live b.index ~init:[]
               ~f:(fun acc (i : Rtl.inst) after ->
                 if removable i after then begin
                   changed := true;
                   acc
                 end
                 else i :: acc))
  in
  if !changed then begin
    Func.set_body f body;
    (* Removed instructions are never labels or terminators (both have
       side effects), so block structure survives unless a whole
       unreachable block went away (shifting the indices). *)
    Mac_dataflow.Analysis.invalidate am
      ~preserves:
        (if !dropped_block then []
         else [ Mac_dataflow.Analysis.Dom; Mac_dataflow.Analysis.Loops ])
  end;
  !changed

(* Liveness cannot retire a register that keeps itself alive around a
   back edge ([i = i + 1] with no other use — a "faint" variable, e.g. a
   loop counter left behind by induction-variable elimination). A register
   is faint when every instruction that uses it is a pure instruction
   whose only definition is the register itself; all such instructions can
   go at once. *)
let remove_faint (f : Func.t) =
  (* per register id: 0 never mentioned, 1 faint so far, 2 not faint *)
  let state = Array.make f.next_reg 0 in
  let mention r = if state.(Reg.id r) = 0 then state.(Reg.id r) <- 1 in
  let not_faint r = state.(Reg.id r) <- 2 in
  let only_def (i : Rtl.inst) defs =
    if Rtl.has_side_effect i.kind then None
    else match defs with [ d ] -> Some d | _ -> None
  in
  List.iter
    (fun (i : Rtl.inst) ->
      let defs = Rtl.defs i.kind in
      List.iter mention defs;
      let d = only_def i defs in
      List.iter
        (fun r ->
          match d with
          | Some d when Reg.equal d r -> mention r
          | _ -> not_faint r)
        (Rtl.uses i.kind))
    f.body;
  (* a parameter no instruction mentions may lie beyond [next_reg] *)
  List.iter (fun r -> if Reg.id r < f.next_reg then not_faint r) f.params;
  (* only a faint register's own single definitions can go, and a faint
     register may have none (a call's result nobody reads) *)
  Array.exists (fun s -> s = 1) state
  &&
  let is_dead_inst (i : Rtl.inst) =
    match only_def i (Rtl.defs i.kind) with
    | Some d -> state.(Reg.id d) = 1
    | None -> false
  in
  let body = List.filter (fun i -> not (is_dead_inst i)) f.body in
  List.compare_lengths body f.body <> 0
  && begin
       Func.set_body f body;
       true
     end

let run ?am (f : Func.t) =
  let am =
    match am with Some am -> am | None -> Mac_dataflow.Analysis.create f
  in
  let changed = ref false in
  (* Both removals are monotone (removing an instruction only ever makes
     more instructions dead or faint), so the joint fixpoint is the same
     whatever the interleaving; running the faint scan only once the
     liveness-based pass is quiescent reaches it with far fewer
     whole-body scans. *)
  let rec go () =
    if once am f then begin
      changed := true;
      go ()
    end
    else if remove_faint f then begin
      (* Faint instructions are pure single-def bodies: plain
         instructions only, so block structure survives. *)
      Mac_dataflow.Analysis.invalidate am
        ~preserves:
          [ Mac_dataflow.Analysis.Dom; Mac_dataflow.Analysis.Loops ];
      changed := true;
      go ()
    end
  in
  go ();
  !changed
