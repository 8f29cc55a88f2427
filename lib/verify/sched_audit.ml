open Mac_rtl
module Sched = Mac_opt.Sched
module Ps = Mac_opt.Pipeline_sched
module Machine = Mac_machine.Machine

let pass = "pipeline-sched-audit"

(* Re-verify one schedule certificate against a freshly rebuilt
   dependence graph. The scheduler's own solver is not trusted: the
   audit re-derives the loop-carried register set and the edge list from
   the recorded body via {!Pipeline_sched.edges} (which itself rebuilds
   {!Sched.build_dag} from scratch) and checks the recorded times
   against every constraint, the issue-slot resource table, the stage-0
   pinning of loop-carried definitions and the MII bounds — then checks
   that the kernel in the {e output} RTL really is the claimed
   reschedule: [stages] copies of the original body (one per overlapped
   iteration), identical instruction by instruction once register names
   are erased. *)
let check_cert (m : Machine.t) (f : Func.t) (r : Ps.report) (c : Ps.cert) =
  let diags = ref [] in
  let err fmt = Format.kasprintf (fun s -> diags := Diagnostic.error ~pass s :: !diags) fmt in
  let arr = Array.of_list c.Ps.c_body in
  let n = Array.length arr in
  let ii = c.Ps.c_ii in
  if Array.length c.Ps.c_times <> n then
    err "loop %s: %d schedule times for %d instructions" r.Ps.header
      (Array.length c.Ps.c_times) n
  else if ii < 1 then err "loop %s: II %d < 1" r.Ps.header ii
  else begin
    let t = c.Ps.c_times in
    (* independently re-derived loop-carried set must match the recorded
       one — a disagreement means the renaming partition is unsound *)
    let shared =
      Ps.loop_shared ~body:c.Ps.c_body ~branch_uses:c.Ps.c_branch_uses
    in
    if not (Reg.Set.equal shared c.Ps.c_shared) then
      err "loop %s: recorded loop-carried set differs from re-derivation"
        r.Ps.header;
    (* every dependence edge holds: t(dst) >= t(src) + lat - dist*II *)
    let es, _ = Ps.edges m ~shared arr in
    List.iter
      (fun (e : Ps.edge) ->
        if t.(e.dst) < t.(e.src) + e.lat - (e.dist * ii) then
          err
            "loop %s: edge %d->%d (lat %d, dist %d) violated at II %d: t=%d \
             vs t=%d"
            r.Ps.header e.src e.dst e.lat e.dist ii t.(e.src) t.(e.dst))
      es;
    (* issue slots are exclusive modulo II *)
    let owner = Array.make ii (-1) in
    Array.iteri
      (fun o (inst : Rtl.inst) ->
        for k = 0 to Sched.issue_cost m inst.kind - 1 do
          let s = (t.(o) + k) mod ii in
          if owner.(s) >= 0 then
            err "loop %s: issue slot %d claimed by ops %d and %d" r.Ps.header
              s owner.(s) o
          else owner.(s) <- o
        done)
      arr;
    (* definitions the back branch reads stay in stage 0, so the kernel
       block's once-per-u-iterations exit test sees an exact iteration
       boundary; other loop-carried registers are free to float (the
       distance-1 cross edges order their instances) *)
    let pinned =
      List.fold_left
        (fun acc rg ->
          if Reg.Set.mem rg shared then Reg.Set.add rg acc else acc)
        Reg.Set.empty c.Ps.c_branch_uses
    in
    Array.iteri
      (fun o (inst : Rtl.inst) ->
        if
          List.exists (fun rg -> Reg.Set.mem rg pinned) (Rtl.defs inst.kind)
          && t.(o) >= ii
        then
          err "loop %s: op %d defines a branch-read register in stage %d"
            r.Ps.header o (t.(o) / ii))
      arr;
    (* achieved II respects the recomputed resource bound and never
       exceeds the list schedule's steady state *)
    let res =
      Stdlib.max 1
        (Array.fold_left
           (fun acc (i : Rtl.inst) -> acc + Sched.issue_cost m i.kind)
           0 arr)
    in
    if ii < res then
      err "loop %s: II %d below resource bound %d" r.Ps.header ii res;
    let list_ii = Sched.block_cycles m c.Ps.c_body in
    if ii > list_ii then
      err "loop %s: II %d worse than list schedule %d" r.Ps.header ii list_ii;
    let stages =
      1 + Array.fold_left (fun acc x -> Stdlib.max acc (x / ii)) 0 t
    in
    if stages <> c.Ps.c_stages then
      err "loop %s: recorded %d stages, times imply %d" r.Ps.header
        c.Ps.c_stages stages;
    (* the kernel in the output RTL: [stages] register-erased copies of
       the body ([1] for an in-place reorder), then the back branch *)
    let erase kind = Rtl.map_regs (fun _ -> Reg.make 0) kind in
    let rec kernel_of = function
      | [] -> None
      | ({ Rtl.kind = Rtl.Label l; _ } : Rtl.inst) :: rest
        when String.equal l c.Ps.c_kernel ->
        let rec take acc = function
          | [] -> List.rev acc
          | ({ Rtl.kind; _ } : Rtl.inst) :: _ when Sched.is_barrier kind ->
            List.rev acc
          | i :: rest -> take (i :: acc) rest
        in
        Some (take [] rest)
      | _ :: rest -> kernel_of rest
    in
    match kernel_of f.Func.body with
    | None -> err "loop %s: kernel label %s not found" r.Ps.header c.Ps.c_kernel
    | Some kinsts ->
      let copies = match r.Ps.status with Ps.Pipelined -> stages | _ -> 1 in
      if List.length kinsts <> copies * n then
        err "loop %s: kernel holds %d instructions, expected %d x %d"
          r.Ps.header (List.length kinsts) copies n
      else begin
        let tally insts =
          let tbl = Hashtbl.create 16 in
          List.iter
            (fun (i : Rtl.inst) ->
              let k = erase i.kind in
              Hashtbl.replace tbl k
                (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
            insts;
          tbl
        in
        let want = tally c.Ps.c_body and got = tally kinsts in
        Hashtbl.iter
          (fun k cnt ->
            let have = Option.value (Hashtbl.find_opt got k) ~default:0 in
            if have <> copies * cnt then
              err
                "loop %s: kernel carries %d instance(s) of a body shape, \
                 expected %d"
                r.Ps.header have (copies * cnt))
          want
      end
  end;
  List.rev !diags

let regions sched_reports =
  List.filter_map
    (fun ((r : Ps.report), _) ->
      match r.Ps.status with
      | Ps.Pipelined ->
        Some (r.Ps.header, "schedule certificate (audited at Vfull)")
      | _ -> None)
    sched_reports

let run (f : Func.t) ~machine
    ~(sched_reports : (Ps.report * Ps.cert option) list) =
  List.concat_map
    (fun ((r : Ps.report), cert) ->
      match (r.Ps.status, cert) with
      | Ps.Rejected _, _ | _, None -> []
      | (Ps.Pipelined | Ps.Reordered), Some c -> check_cert machine f r c)
    sched_reports
  |> List.map (Diagnostic.with_func f.Func.name)
