open Mac_rtl
module Loop = Mac_cfg.Loop
module Machine = Mac_machine.Machine
module Analysis = Mac_dataflow.Analysis

(* Iterative modulo scheduling (Rau's IMS) over the dependence DAG that
   {!Sched} already builds, plus the distance-1 cross-iteration edges a
   single-block loop needs: loop-carried register hazards and a
   conservative memory ordering. The result is a kernel that initiates
   one iteration every II cycles, materialized as prologue + unrolled
   kernel + epilogue with modulo variable expansion (kernel unrolled by
   the stage count, so every register copy index is static).

   Correctness rests on one invariant: every emitted instance of body
   operation [o] for iteration [i] executes at absolute time
   [t(o) + i*II], and the emission order is exactly the absolute-time
   order. Every dependence — intra-iteration DAG edge or distance-1
   cross edge — is a strict inequality between the two absolute times
   (all edge latencies are >= 1), so the time-sorted emission respects
   program dependences without tracking them again. Operations that
   define a loop-carried (shared, un-renamed) register are pinned to
   stage 0, which makes each kernel window a clean iteration boundary:
   the back branch tests the same register the original loop tested,
   once per kernel block, and is exact because the dispatch rounds the
   bound so the pipelined loop runs S-1 + J*u full iterations. *)

type status =
  | Pipelined  (* S >= 2: prologue/kernel/epilogue committed *)
  | Reordered  (* S = 1: body reordered in place, no overlap *)
  | Rejected of string

type report = {
  header : Rtl.label;
  body_insts : int;
  mii_rec : int;  (* recurrence bound on II *)
  mii_res : int;  (* resource (issue-slot) bound on II *)
  ii : int;  (* achieved initiation interval *)
  stages : int;  (* S; 1 means no cross-iteration overlap was found *)
  kernel_insts : int;
  pressure : int;  (* max simultaneously-live values, modulo II *)
  reg_ceiling : int option;  (* pressure ceiling, from the register file *)
  list_ii : int;  (* Sched.block_cycles of the body: the baseline *)
  status : status;
}

(* Everything the independent audit needs to re-verify the schedule
   against a freshly rebuilt dependence graph. *)
type cert = {
  c_body : Rtl.inst list;  (* original loop body, terminator excluded *)
  c_times : int array;  (* schedule time per body index *)
  c_ii : int;
  c_stages : int;
  c_shared : Reg.Set.t;  (* loop-carried registers, kept un-renamed *)
  c_branch_uses : Reg.t list;  (* registers the back branch reads *)
  c_kernel : Rtl.label;  (* label of the committed kernel (or loop) *)
}

type edge = { src : int; dst : int; lat : int; dist : int }

(* ------------------------------------------------------------------ *)
(* Dependence edges.                                                   *)

(* Loop-carried registers: defined in the body and either upward-exposed
   (some use reads last iteration's value) or read by the back branch.
   These keep their original names — everything else defined in the body
   is renamed per overlapped iteration. *)
let loop_shared ~(body : Rtl.inst list) ~(branch_uses : Reg.t list) =
  let defined =
    List.fold_left
      (fun acc (i : Rtl.inst) ->
        List.fold_left (fun acc r -> Reg.Set.add r acc) acc (Rtl.defs i.kind))
      Reg.Set.empty body
  in
  let _, exposed =
    List.fold_left
      (fun (seen, exp) (i : Rtl.inst) ->
        (* uses read the pre-instruction state, so test before def *)
        let exp =
          List.fold_left
            (fun exp r ->
              if Reg.Set.mem r seen then exp else Reg.Set.add r exp)
            exp (Rtl.uses i.kind)
        in
        let seen =
          List.fold_left (fun s r -> Reg.Set.add r s) seen (Rtl.defs i.kind)
        in
        (seen, exp))
      (Reg.Set.empty, Reg.Set.empty)
      body
  in
  let carried =
    List.fold_left
      (fun acc r -> Reg.Set.add r acc)
      exposed branch_uses
  in
  Reg.Set.inter defined carried

(* All scheduling edges: the intra-iteration DAG from {!Sched.build_dag}
   at distance 0, plus distance-1 edges for every hazard on a shared
   register (each def -> each use RAW at the producer's latency; use ->
   def WAR and def -> def WAW at latency 1, self-pairs included) and for
   every pair of memory references not both loads (latency 1 — base
   registers change across iterations, so the static base+displacement
   disambiguation does not apply). *)
let edges (m : Machine.t) ~(shared : Reg.Set.t) (arr : Rtl.inst array) =
  let n = Array.length arr in
  let acc = ref [] in
  let nodes = Sched.build_dag m (Array.to_list arr) in
  Array.iteri
    (fun i node ->
      List.iter
        (fun (j, lat) -> acc := { src = i; dst = j; lat; dist = 0 } :: !acc)
        node.Sched.succs)
    nodes;
  Reg.Set.iter
    (fun r ->
      let defs = ref [] and uses = ref [] in
      for i = n - 1 downto 0 do
        if List.exists (Reg.equal r) (Rtl.defs arr.(i).kind) then
          defs := i :: !defs;
        if List.exists (Reg.equal r) (Rtl.uses arr.(i).kind) then
          uses := i :: !uses
      done;
      List.iter
        (fun d ->
          let lat = Machine.latency m arr.(d).kind in
          List.iter
            (fun v -> acc := { src = d; dst = v; lat; dist = 1 } :: !acc)
            !uses;
          List.iter
            (fun d' -> acc := { src = d; dst = d'; lat = 1; dist = 1 } :: !acc)
            !defs)
        !defs;
      List.iter
        (fun v ->
          List.iter
            (fun d -> acc := { src = v; dst = d; lat = 1; dist = 1 } :: !acc)
            !defs)
        !uses)
    shared;
  let mems = ref [] in
  for i = n - 1 downto 0 do
    if Rtl.mem_of arr.(i).kind <> None then mems := i :: !mems
  done;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (Rtl.is_load arr.(a).kind && Rtl.is_load arr.(b).kind) then
            acc := { src = a; dst = b; lat = 1; dist = 1 } :: !acc)
        !mems)
    !mems;
  (!acc, Array.map (fun (nd : Sched.node) -> nd.Sched.height) nodes)

(* ------------------------------------------------------------------ *)
(* Lower bounds on II.                                                 *)

let res_mii (m : Machine.t) (arr : Rtl.inst array) =
  Stdlib.max 1
    (Array.fold_left (fun acc (i : Rtl.inst) -> acc + Sched.issue_cost m i.kind) 0 arr)

(* Smallest II in [1, cap] with no positive cycle under edge weight
   [lat - dist*II] (feasibility is monotone in II: weights only drop).
   Returns [cap + 1] if even [cap] has a positive cycle — the caller
   falls back to the list schedule, which needs no recurrence slack. *)
let rec_mii ~n (es : edge list) ~cap =
  let feasible ii =
    let d = Array.make n 0 in
    let changed = ref true and rounds = ref 0 in
    while !changed && !rounds <= n do
      changed := false;
      incr rounds;
      List.iter
        (fun e ->
          let w = e.lat - (e.dist * ii) in
          if d.(e.src) + w > d.(e.dst) then begin
            d.(e.dst) <- d.(e.src) + w;
            changed := true
          end)
        es
    done;
    not !changed
  in
  if n = 0 then 1
  else if not (feasible cap) then cap + 1
  else begin
    (* invariant: feasible hi, infeasible (lo) unless lo = 1 feasible *)
    if feasible 1 then 1
    else begin
      let lo = ref 1 and hi = ref cap in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if feasible mid then hi := mid else lo := mid
      done;
      !hi
    end
  end

(* ------------------------------------------------------------------ *)
(* The list schedule, with per-op start times: both the II search's
   upper bound and the guaranteed-feasible fallback (its times are a
   valid single-stage modulo schedule at II = finish). *)

let list_times (m : Machine.t) (arr : Rtl.inst array) =
  let nodes = Sched.build_dag m (Array.to_list arr) in
  let n = Array.length nodes in
  let times = Array.make n 0 in
  let ready_at = Array.make n 0 in
  let scheduled = Array.make n false in
  let cycle = ref 0 and finish = ref 0 and remaining = ref n in
  while !remaining > 0 do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if (not scheduled.(i)) && nodes.(i).Sched.preds = 0
         && ready_at.(i) <= !cycle
      then
        if !best < 0 || nodes.(i).Sched.height > nodes.(!best).Sched.height
        then best := i
    done;
    match !best with
    | -1 ->
      let next = ref max_int in
      for i = 0 to n - 1 do
        if (not scheduled.(i)) && nodes.(i).Sched.preds = 0 then
          next := Stdlib.min !next ready_at.(i)
      done;
      cycle := if !next = max_int then !cycle + 1 else !next
    | i ->
      scheduled.(i) <- true;
      times.(i) <- !cycle;
      decr remaining;
      let issue = Sched.issue_cost m nodes.(i).Sched.inst.kind in
      let done_at = !cycle + Machine.latency m nodes.(i).Sched.inst.kind in
      finish := Stdlib.max !finish (!cycle + issue);
      finish := Stdlib.max !finish done_at;
      List.iter
        (fun (j, lat) ->
          nodes.(j).Sched.preds <- nodes.(j).Sched.preds - 1;
          ready_at.(j) <- Stdlib.max ready_at.(j) (!cycle + lat))
        nodes.(i).Sched.succs;
      cycle := !cycle + issue
  done;
  (times, Stdlib.max 1 !finish)

(* ------------------------------------------------------------------ *)
(* The IMS core: schedule-with-eviction at a fixed II.                 *)

let ims ~ii ~(issue : int array) ~(preds : (int * int * int) list array)
    ~(succs : (int * int * int) list array) ~(stage0 : bool array)
    ~(prio : int array) =
  let n = Array.length issue in
  if Array.exists (fun c -> c > ii) issue then None
  else begin
    let time = Array.make n (-1) in
    let prev = Array.make n (-1) in
    let owner = Array.make ii (-1) in
    let budget = ref ((8 * n) + 32) in
    let slot t k = (t + k) mod ii in
    let release o =
      for s = 0 to ii - 1 do
        if owner.(s) = o then owner.(s) <- -1
      done
    in
    let unschedule o =
      release o;
      time.(o) <- -1
    in
    let estart_of o =
      List.fold_left
        (fun acc (p, lat, dist) ->
          if time.(p) >= 0 then Stdlib.max acc (time.(p) + lat - (dist * ii))
          else acc)
        0 preds.(o)
    in
    let free_at o t =
      let ok = ref true in
      for k = 0 to issue.(o) - 1 do
        let s = slot t k in
        if owner.(s) <> -1 && owner.(s) <> o then ok := false
      done;
      !ok
    in
    let place o t =
      for k = 0 to issue.(o) - 1 do
        let s = slot t k in
        if owner.(s) <> -1 && owner.(s) <> o then unschedule owner.(s);
        owner.(s) <- o
      done;
      time.(o) <- t;
      prev.(o) <- t;
      (* lazily evict successors whose start constraint just broke *)
      List.iter
        (fun (j, lat, dist) ->
          if j <> o && time.(j) >= 0 && time.(j) < t + lat - (dist * ii)
          then unschedule j)
        succs.(o)
    in
    let pick () =
      let best = ref (-1) in
      for o = n - 1 downto 0 do
        if time.(o) < 0 && (!best < 0 || prio.(o) >= prio.(!best)) then
          best := o
      done;
      !best
    in
    let failed = ref false in
    let continue_ = ref true in
    while !continue_ do
      match pick () with
      | -1 -> continue_ := false
      | o ->
        if !budget <= 0 then begin
          failed := true;
          continue_ := false
        end
        else begin
          decr budget;
          if stage0.(o) && estart_of o > ii - 1 then
            (* a floating predecessor pushed a pinned op out of stage 0:
               evict the offenders and retry them later *)
            List.iter
              (fun (p, lat, dist) ->
                if time.(p) >= 0 && time.(p) + lat - (dist * ii) > ii - 1
                then unschedule p)
              preds.(o);
          let estart = estart_of o in
          let maxt = if stage0.(o) then ii - 1 else estart + ii - 1 in
          let t = ref estart and found = ref (-1) in
          while !found < 0 && !t <= maxt do
            if free_at o !t then found := !t;
            incr t
          done;
          let at =
            if !found >= 0 then !found
            else begin
              let forced = Stdlib.max estart (prev.(o) + 1) in
              if stage0.(o) then Stdlib.min forced (ii - 1) else forced
            end
          in
          if at < 0 then begin
            failed := true;
            continue_ := false
          end
          else place o at
        end
    done;
    if !failed then None else Some (Array.copy time)
  end

(* ------------------------------------------------------------------ *)
(* Register pressure of a modulo schedule: for every value defined by a
   body op, its lifetime [t_def, t_lastuse+1) wraps modulo II; a slot's
   pressure is how many lifetime cycles cover it, i.e. how many
   overlapped copies are simultaneously live in the kernel. Shared and
   loop-invariant registers are live throughout and add a constant. *)

let pressure ~ii ~(times : int array) (arr : Rtl.inst array)
    ~(shared : Reg.Set.t) =
  let n = Array.length arr in
  let slots = Array.make ii 0 in
  (* last def of r strictly before position v, intra-iteration *)
  let last_def r v =
    let found = ref (-1) in
    for i = 0 to v - 1 do
      if List.exists (Reg.equal r) (Rtl.defs arr.(i).kind) then found := i
    done;
    !found
  in
  let last_use = Array.make n (-1) in
  for v = 0 to n - 1 do
    List.iter
      (fun r ->
        if not (Reg.Set.mem r shared) then
          let d = last_def r v in
          if d >= 0 then last_use.(d) <- Stdlib.max last_use.(d) times.(v))
      (Rtl.uses arr.(v).kind)
  done;
  let defined = ref Reg.Set.empty and used = ref Reg.Set.empty in
  for d = 0 to n - 1 do
    List.iter (fun r -> defined := Reg.Set.add r !defined)
      (Rtl.defs arr.(d).kind);
    List.iter (fun r -> used := Reg.Set.add r !used) (Rtl.uses arr.(d).kind);
    List.iter
      (fun r ->
        if not (Reg.Set.mem r shared) then begin
          let t0 = times.(d) in
          let t1 = Stdlib.max (t0 + 1) (last_use.(d) + 1) in
          for tau = t0 to t1 - 1 do
            slots.(tau mod ii) <- slots.(tau mod ii) + 1
          done
        end)
      (Rtl.defs arr.(d).kind)
  done;
  let invariants = Reg.Set.diff !used !defined in
  let live_through = Reg.Set.cardinal invariants + Reg.Set.cardinal shared in
  Array.fold_left Stdlib.max 0 slots + live_through

(* ------------------------------------------------------------------ *)
(* The II search.                                                      *)

type sched = {
  s_times : int array;
  s_ii : int;
  s_stages : int;
  s_mii_rec : int;
  s_mii_res : int;
  s_pressure : int;
  s_list_ii : int;
}

let max_stages = 6

let solve (m : Machine.t) ?max_regs ~(shared : Reg.Set.t)
    ~(pinned : Reg.Set.t) (body : Rtl.inst list) =
  let arr = Array.of_list body in
  let n = Array.length arr in
  if n = 0 then None
  else begin
    let es, heights = edges m ~shared arr in
    let issue = Array.map (fun (i : Rtl.inst) -> Sched.issue_cost m i.kind) arr in
    let preds = Array.make n [] and succs = Array.make n [] in
    List.iter
      (fun e ->
        preds.(e.dst) <- (e.src, e.lat, e.dist) :: preds.(e.dst);
        succs.(e.src) <- (e.dst, e.lat, e.dist) :: succs.(e.src))
      es;
    (* Only definitions the back branch depends on must stay in stage 0
       (the kernel block's once-per-u-iterations exit test reads them);
       every other loop-carried register is kept correct at any stage by
       the distance-1 cross edges plus time-sorted emission. *)
    let stage0 =
      Array.map
        (fun (i : Rtl.inst) ->
          List.exists (fun r -> Reg.Set.mem r pinned) (Rtl.defs i.kind))
        arr
    in
    let ltimes, list_ii = list_times m arr in
    let mii_res = res_mii m arr in
    let mii_rec = rec_mii ~n es ~cap:list_ii in
    let mii = Stdlib.max mii_rec mii_res in
    let ceiling = Option.map (fun k -> Stdlib.max 1 (k - 4)) max_regs in
    let stages_of ii times =
      1 + Array.fold_left (fun acc t -> Stdlib.max acc (t / ii)) 0 times
    in
    let found = ref None in
    let ii = ref mii in
    while !found = None && !ii < list_ii do
      (match ims ~ii:!ii ~issue ~preds ~succs ~stage0 ~prio:heights with
      | Some times ->
        let s = stages_of !ii times in
        let press = pressure ~ii:!ii ~times arr ~shared in
        let fits =
          match ceiling with Some c -> press <= c | None -> true
        in
        if s <= max_stages && fits then
          found :=
            Some
              {
                s_times = times;
                s_ii = !ii;
                s_stages = s;
                s_mii_rec = mii_rec;
                s_mii_res = mii_res;
                s_pressure = press;
                s_list_ii = list_ii;
              }
      | None -> ());
      incr ii
    done;
    match !found with
    | Some s -> Some s
    | None ->
      (* the list schedule is always a feasible single-stage modulo
         schedule at II = its own finish *)
      Some
        {
          s_times = ltimes;
          s_ii = list_ii;
          s_stages = 1;
          s_mii_rec = mii_rec;
          s_mii_res = mii_res;
          s_pressure = pressure ~ii:list_ii ~times:ltimes arr ~shared;
          s_list_ii = list_ii;
        }
  end

(* ------------------------------------------------------------------ *)
(* The profitability oracle: steady-state cycles per iteration if the
   candidate body were software-pipelined — achieved II of the
   straight-line part plus the issue cost of its terminators. *)

let steady_ii (m : Machine.t) ?max_regs (insts : Rtl.inst list) =
  let body =
    List.filter (fun (i : Rtl.inst) -> not (Sched.is_barrier i.kind)) insts
  in
  let terms =
    List.filter (fun (i : Rtl.inst) -> Sched.is_barrier i.kind) insts
  in
  let term_cost =
    List.fold_left
      (fun acc (i : Rtl.inst) ->
        acc
        + match i.kind with
          | Rtl.Label _ | Rtl.Nop -> 0
          | k -> Sched.issue_cost m k)
      0 terms
  in
  let branch_uses =
    List.concat_map (fun (i : Rtl.inst) -> Rtl.uses i.kind) terms
  in
  let shared = loop_shared ~body ~branch_uses in
  let pinned =
    List.fold_left
      (fun acc r -> if Reg.Set.mem r shared then Reg.Set.add r acc else acc)
      Reg.Set.empty branch_uses
  in
  match solve m ?max_regs ~shared ~pinned body with
  | None -> term_cost
  | Some s -> s.s_ii + term_cost

(* ------------------------------------------------------------------ *)
(* Code generation.                                                    *)

let is_pow2 v =
  Int64.compare v 0L > 0 && Int64.equal (Int64.logand v (Int64.pred v)) 0L

let has_barrier body = List.exists (fun (i : Rtl.inst) -> Sched.is_barrier i.kind) body

(* Emit the instances of windows [wlo..whi] (window w = absolute cycles
   [w*II, (w+1)*II)), iteration of op o in window w being [w - stage o],
   capped at [max_iter], in absolute-time order. *)
let window_insts f ~subst ~(arr : Rtl.inst array) ~times ~ii ~wlo ~whi
    ~max_iter =
  let n = Array.length arr in
  let xs = ref [] in
  for o = 0 to n - 1 do
    let s = times.(o) / ii in
    for w = Stdlib.max wlo s to whi do
      let i = w - s in
      if i <= max_iter then xs := (times.(o) + (i * ii), i, o) :: !xs
    done
  done;
  List.sort compare !xs
  |> List.map (fun (_, i, o) ->
         Func.inst f (Rtl.map_regs (subst i) arr.(o).kind))

let commit_pipelined f (machine : Machine.t) (s : Loop.simple)
    (trip : Induction.trip) (sched : sched) (shared : Reg.Set.t)
    (arr : Rtl.inst array) ~pre ~label_inst ~post =
  let n = Array.length arr in
  let ii = sched.s_ii and times = sched.s_times in
  let stages = sched.s_stages in
  let u = stages in
  let defined =
    Array.fold_left
      (fun acc (i : Rtl.inst) ->
        List.fold_left (fun acc r -> Reg.Set.add r acc) acc (Rtl.defs i.kind))
      Reg.Set.empty arr
  in
  let renamed = Reg.Set.diff defined shared in
  let copies = Reg.Tbl.create 8 in
  Reg.Set.iter
    (fun r ->
      Reg.Tbl.replace copies r (Array.init u (fun _ -> Func.fresh_reg f)))
    renamed;
  let subst i r =
    match Reg.Tbl.find_opt copies r with
    | Some a -> a.(i mod u)
    | None -> r
  in
  let windows wlo whi max_iter =
    window_insts f ~subst ~arr ~times ~ii ~wlo ~whi ~max_iter
  in
  let prologue = windows 0 (stages - 2) max_int in
  let kernel = windows (stages - 1) (stages - 2 + u) max_int in
  let epilogue =
    windows (stages - 1 + u) ((2 * stages) - 3 + u) (stages - 2 + u)
  in
  let safe_label = Func.fresh_label ~hint:"Lsafe" f in
  let kernel_label = Func.fresh_label ~hint:"Lmain" f in
  let join_label = Func.fresh_label ~hint:"Ljoin" f in
  (* Dispatch: mirror the unroller's divisibility epilogue, except the
     bound is rounded so the pipelined loop runs S-1 + J*u iterations
     (the S-1 the prologue starts plus J full kernel blocks), J >= 1. *)
  let step_abs = Int64.abs trip.iv.step in
  let counting_up = Int64.compare trip.iv.step 0L > 0 in
  let adjust = Int64.sub trip.offset trip.iv.step in
  let dist = Func.fresh_reg f in
  let distk = Func.fresh_reg f in
  let rem = Func.fresh_reg f in
  let bound2 = Func.fresh_reg f in
  let imul k = Int64.mul (Int64.of_int k) step_abs in
  let stride = imul u in
  let dispatch =
    (if counting_up then
       [ Rtl.Binop (Rtl.Sub, dist, trip.bound, Rtl.Reg trip.iv.reg) ]
     else [ Rtl.Binop (Rtl.Sub, dist, Rtl.Reg trip.iv.reg, trip.bound) ])
    @ (if Int64.equal adjust 0L then []
       else if counting_up then
         [ Rtl.Binop (Rtl.Sub, dist, Rtl.Reg dist, Rtl.Imm adjust) ]
       else [ Rtl.Binop (Rtl.Add, dist, Rtl.Reg dist, Rtl.Imm adjust) ])
    @ [
        Rtl.Branch
          { cmp = Rtl.Le; l = Rtl.Reg dist; r = Rtl.Imm 0L;
            target = safe_label };
      ]
    @ (if Int64.equal step_abs 1L then []
       else
         let t = Func.fresh_reg f in
         [
           (if is_pow2 step_abs then
              Rtl.Binop
                (Rtl.And, t, Rtl.Reg dist, Rtl.Imm (Int64.pred step_abs))
            else Rtl.Binop (Rtl.Rem, t, Rtl.Reg dist, Rtl.Imm step_abs));
           Rtl.Branch
             { cmp = Rtl.Ne; l = Rtl.Reg t; r = Rtl.Imm 0L;
               target = safe_label };
         ])
    @ [
        (* too few iterations to fill the pipeline once *)
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg dist;
            r = Rtl.Imm (imul (stages - 1 + u)); target = safe_label };
        Rtl.Binop (Rtl.Sub, distk, Rtl.Reg dist, Rtl.Imm (imul (stages - 1)));
        (if is_pow2 stride then
           Rtl.Binop (Rtl.And, rem, Rtl.Reg distk, Rtl.Imm (Int64.pred stride))
         else Rtl.Binop (Rtl.Rem, rem, Rtl.Reg distk, Rtl.Imm stride));
        (if counting_up then
           Rtl.Binop (Rtl.Sub, bound2, trip.bound, Rtl.Reg rem)
         else Rtl.Binop (Rtl.Add, bound2, trip.bound, Rtl.Reg rem));
      ]
  in
  let swap_bound op = if op = trip.bound then Rtl.Reg bound2 else op in
  let kernel_back, safe_back =
    match s.back_branch.kind with
    | Rtl.Branch b ->
      ( Rtl.Branch
          { b with l = swap_bound b.l; r = swap_bound b.r;
            target = kernel_label },
        Rtl.Branch { b with target = safe_label } )
    | _ -> assert false
  in
  let copy_back =
    List.map
      (fun r ->
        Rtl.Move (r, Rtl.Reg (Reg.Tbl.find copies r).((stages - 2) mod u)))
      (Reg.Set.elements renamed)
  in
  let glue =
    Rtl.Branch
      { cmp = Rtl.Eq; l = Rtl.Reg rem; r = Rtl.Imm 0L; target = join_label }
  in
  (* The paper's I-cache discipline, as the unroller applies it: if the
     rolled loop fits, the expanded one must too. *)
  let total =
    List.length dispatch + List.length prologue + List.length kernel
    + List.length epilogue + List.length copy_back + n + 8
  in
  let rolled = (n + 2) * machine.Machine.bytes_per_inst in
  let expanded = (total + 2) * machine.Machine.bytes_per_inst in
  if rolled <= machine.Machine.icache_bytes
     && expanded > machine.Machine.icache_bytes
  then None
  else begin
    let k kind = Func.inst f kind in
    Func.set_body f
      (pre
      @ [ label_inst ]
      @ List.map k dispatch
      @ prologue
      @ [ k (Rtl.Label kernel_label) ]
      @ kernel
      @ [ k kernel_back ]
      @ epilogue
      @ List.map k copy_back
      @ [ k glue; k (Rtl.Label safe_label) ]
      @ Func.refresh_uids f s.body
      @ [ k safe_back; k (Rtl.Label join_label) ]
      @ post);
    Some (kernel_label, safe_label, List.length kernel + 1)
  end

(* ------------------------------------------------------------------ *)
(* The pass driver.                                                    *)

let reject header ~n ?(list_ii = 0) msg =
  {
    header;
    body_insts = n;
    mii_rec = 0;
    mii_res = 0;
    ii = 0;
    stages = 0;
    kernel_insts = 0;
    pressure = 0;
    reg_ceiling = None;
    list_ii;
    status = Rejected msg;
  }

let attempt f ~machine ?max_regs (s : Loop.simple) =
  let n = List.length s.body in
  let header = s.header_label in
  if n = 0 then (reject header ~n "empty body", None, [])
  else if has_barrier s.body then
    (reject header ~n "control flow in body", None, [])
  else
    match Induction.trip_of s with
    | None -> (reject header ~n "no affine trip count", None, [])
    | Some trip -> (
      match Unroll.split_at_loop f s with
      | None -> (reject header ~n "loop not contiguous", None, [])
      | Some (pre, label_inst, body, _back, post) ->
        let branch_uses = Rtl.uses s.back_branch.kind in
        let shared = loop_shared ~body ~branch_uses in
        let pinned =
          List.fold_left
            (fun acc r ->
              if Reg.Set.mem r shared then Reg.Set.add r acc else acc)
            Reg.Set.empty branch_uses
        in
        let arr = Array.of_list body in
        (match solve machine ?max_regs ~shared ~pinned body with
        | None -> (reject header ~n "empty body", None, [])
        | Some sched ->
          let base =
            {
              header;
              body_insts = n;
              mii_rec = sched.s_mii_rec;
              mii_res = sched.s_mii_res;
              ii = sched.s_ii;
              stages = sched.s_stages;
              kernel_insts = n;
              pressure = sched.s_pressure;
              reg_ceiling = Option.map (fun k -> Stdlib.max 1 (k - 4)) max_regs;
              list_ii = sched.s_list_ii;
              status = Reordered;
            }
          in
          let cert kernel =
            {
              c_body = body;
              c_times = sched.s_times;
              c_ii = sched.s_ii;
              c_stages = sched.s_stages;
              c_shared = shared;
              c_branch_uses = branch_uses;
              c_kernel = kernel;
            }
          in
          if sched.s_stages = 1 then begin
            (* no overlap found: realise the schedule as an in-place
               reorder of the body (times strictly increase along every
               edge, so the time-sorted order is dependence-safe) *)
            let order =
              List.mapi (fun o i -> (sched.s_times.(o), o, i)) body
              |> List.sort compare
              |> List.map (fun (_, _, i) -> i)
            in
            Func.set_body f
              (pre @ [ label_inst ] @ order @ [ s.back_branch ] @ post);
            (base, Some (cert header), [ header ])
          end
          else
            match
              commit_pipelined f machine s trip sched shared arr ~pre
                ~label_inst ~post
            with
            | None ->
              (reject header ~n ~list_ii:sched.s_list_ii "exceeds I-cache",
               None, [])
            | Some (kernel_label, safe_label, kernel_insts) ->
              ( { base with status = Pipelined; kernel_insts },
                Some (cert kernel_label),
                [ header; kernel_label; safe_label ] )))

let run ?am ?max_regs (f : Func.t) ~machine =
  let am = match am with Some am -> am | None -> Analysis.create f in
  let results = ref [] in
  let seen = Hashtbl.create 8 in
  let changed = ref false in
  let rec go () =
    let cfgv = Analysis.cfg am in
    let loops = Analysis.loops am in
    let next =
      List.find_map
        (fun l ->
          match Loop.simple_of cfgv l with
          | Some s when not (Hashtbl.mem seen s.Loop.header_label) -> Some s
          | _ -> None)
        loops
    in
    match next with
    | None -> ()
    | Some s ->
      Hashtbl.replace seen s.Loop.header_label ();
      let report, cert, labels = attempt f ~machine ?max_regs s in
      List.iter (fun l -> Hashtbl.replace seen l ()) labels;
      results := (report, cert) :: !results;
      (match report.status with
      | Rejected _ -> ()
      | Pipelined | Reordered ->
        changed := true;
        Analysis.invalidate_all am);
      go ()
  in
  go ();
  (!changed, List.rev !results)

(* ------------------------------------------------------------------ *)

let pp_status ppf = function
  | Pipelined -> Fmt.string ppf "pipelined"
  | Reordered -> Fmt.string ppf "reordered (single stage)"
  | Rejected r -> Fmt.pf ppf "rejected: %s" r

let pp_report ppf (r : report) =
  match r.status with
  | Rejected _ ->
    Fmt.pf ppf "loop %s: %a" r.header pp_status r.status
  | _ ->
    Fmt.pf ppf
      "loop %s: %a@,\
      \  MII %d (recurrence %d, resource %d)  achieved II %d  list %d@,\
      \  stages %d  kernel %d inst(s)  pressure %d%a"
      r.header pp_status r.status
      (Stdlib.max r.mii_rec r.mii_res)
      r.mii_rec r.mii_res r.ii r.list_ii r.stages r.kernel_insts r.pressure
      (fun ppf -> function
        | Some c -> Fmt.pf ppf " (ceiling %d)" c
        | None -> Fmt.string ppf "")
      r.reg_ceiling
