(* Static cache-behaviour and cycle estimator. See the interface for the
   model; the short version: walk the CFG over a concrete-constant
   register domain, symbolically execute every loop body three times to
   observe per-iteration deltas, solve trip counts from the exit
   branches in closed form, compress each load/store into an affine
   access stream and fold the streams through Reuse into miss counts and
   through the machine's cost tables into cycles. Work is proportional
   to code size times 3^loop-depth, never to trip counts. *)

open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Dom = Mac_cfg.Dom
module Loop = Mac_cfg.Loop
module Machine = Mac_machine.Machine
module Sched = Mac_opt.Sched
module Linform = Mac_opt.Linform
module Reuse = Mac_dataflow.Reuse

(* ------------------------------------------------------------------ *)
(* Concrete-constant environment: registers with a known value are
   present, everything else is unknown. *)

type env = (int, int64) Hashtbl.t

let env_get (env : env) r = Hashtbl.find_opt env (Reg.id r)

let env_set (env : env) r = function
  | Some v -> Hashtbl.replace env (Reg.id r) v
  | None -> Hashtbl.remove env (Reg.id r)

let operand_value env = function
  | Rtl.Imm v -> Some v
  | Rtl.Reg r -> env_get env r

(* ------------------------------------------------------------------ *)
(* Walk-time records. *)

(* One executed memory reference: the resolved address (after the
   unaligned round-down contract), or None when the base register was
   unknown. [a_raw] is the address {e before} that round-down: the
   rounded value is a staircase (constant for [width/stride] iterations,
   then a jump), so stream strides are matched on the raw affine
   address instead — widths divide the line size, so the round-down
   never moves an access to a different cache line. [a_mis] marks a
   tolerated misaligned access (+2 cycles in the engine). *)
type aentry = {
  a_addr : int64 option;
  a_raw : int64 option;
  a_bytes : int;
  a_load : bool;
  a_mis : bool;
}

(* An exit-candidate branch execution inside a loop walk: a conditional
   branch with one successor outside the loop. [c_exit_on] is the truth
   value of [cmp l r] that leaves the loop. *)
type cand = {
  c_uid : int;
  c_cmp : Rtl.cmp;
  c_l : int64 option;
  c_r : int64 option;
  c_exit_on : bool;
  c_out : int;  (* block index the exit side reaches *)
}

(* A summarized loop, per entry. *)
type loopsum = {
  ls_trip : int;
  ls_insts : int;  (* engine-counted instructions, per entry *)
  ls_cycles : int;  (* cycles per entry, excluding d-cache miss penalties *)
  ls_loads : int;  (* dynamic loads per entry *)
  ls_stores : int;
  ls_misses : int;  (* predicted d-cache misses per cold entry *)
  ls_lift : (int * int * float) list;
      (* footprint windows (lo, width, line density), sorted *)
  ls_thrashed : bool;  (* cross-iteration reuse denied somewhere inside *)
  ls_profiles : Reuse.loop_profile list;  (* self first, then descendants *)
}

type ev = Acc of aentry | Lp of loopsum

type trace = {
  mutable t_insts : int;
  mutable t_straight_rev : Rtl.inst list;  (* this region, exec order *)
  mutable t_loads : int;  (* dynamic, inner loops included *)
  mutable t_stores : int;
  mutable t_accs_rev : aentry list;  (* direct accesses of this region *)
  mutable t_loops_rev : loopsum list;
  mutable t_order_rev : ev list;
  mutable t_cands_rev : cand list;
  mutable t_mis : int;  (* tolerated-misaligned direct accesses *)
}

let mk_trace () =
  {
    t_insts = 0;
    t_straight_rev = [];
    t_loads = 0;
    t_stores = 0;
    t_accs_rev = [];
    t_loops_rev = [];
    t_order_rev = [];
    t_cands_rev = [];
    t_mis = 0;
  }

type exit_kind = Ret of int64 option | OutTo of int | Back

exception Leave of exit_kind
exception Out_of_fuel

(* Per-function CFG view, cached across calls. *)
type fninfo = {
  fi_func : Func.t;
  fi_cfg : Cfg.t;
  fi_headers : (int, Loop.t) Hashtbl.t;
}

type ctx = {
  machine : Machine.t;
  line : int;
  csize : int;
  read : (int64 -> int -> int64 option) option;  (* addr, bytes *)
  resolve : string -> Func.t option;
  fns : (string, fninfo) Hashtbl.t;
  overlay : (int64 * int, int64) Hashtbl.t;  (* (addr, bytes) -> value *)
  mutable dirty : (int * int) list;  (* byte intervals of unknown content *)
  mutable fuel : int;
  mutable approx : bool;
}

let fninfo ctx (f : Func.t) =
  match Hashtbl.find_opt ctx.fns f.Func.name with
  | Some fi when fi.fi_func == f -> fi
  | _ ->
    let cfg = Cfg.build f in
    let dom = Dom.compute cfg in
    let headers = Hashtbl.create 4 in
    List.iter
      (fun (l : Loop.t) -> Hashtbl.replace headers l.Loop.header l)
      (Loop.natural_loops cfg dom);
    let fi = { fi_func = f; fi_cfg = cfg; fi_headers = headers } in
    Hashtbl.replace ctx.fns f.Func.name fi;
    fi

(* ------------------------------------------------------------------ *)
(* Memory oracle: an overlay of walked stores over dirty intervals over
   the caller-provided initial memory. Loads with a concrete address hit
   the overlay first (exact address and width), then give up inside any
   region some unwalked iteration may have written, then fall back to
   the initial-memory oracle. *)

let intersects_dirty ctx lo hi =
  List.exists (fun (dlo, dhi) -> lo < dhi && dlo < hi) ctx.dirty

let mark_dirty ctx lo hi = if hi > lo then ctx.dirty <- (lo, hi) :: ctx.dirty

let forget_memory ctx =
  Hashtbl.reset ctx.overlay;
  ctx.dirty <- [ (min_int / 2, max_int / 2) ]

let drop_overlay_in ctx lo hi =
  let doomed =
    Hashtbl.fold
      (fun ((a, w) as k) _ acc ->
        let alo = Int64.to_int a in
        if alo < hi && lo < alo + w then k :: acc else acc)
      ctx.overlay []
  in
  List.iter (Hashtbl.remove ctx.overlay) doomed

let mem_read ctx addr bytes =
  match Hashtbl.find_opt ctx.overlay (addr, bytes) with
  | Some v -> Some v
  | None ->
    let lo = Int64.to_int addr in
    if intersects_dirty ctx lo (lo + bytes) then None
    else (
      match ctx.read with Some f -> f addr bytes | None -> None)

let mem_write ctx addr bytes v =
  match v with
  | Some v -> Hashtbl.replace ctx.overlay (addr, bytes) v
  | None ->
    Hashtbl.remove ctx.overlay (addr, bytes);
    let lo = Int64.to_int addr in
    mark_dirty ctx lo (lo + bytes)

let sext v bytes =
  if bytes >= 8 then v
  else
    let shift = 64 - (8 * bytes) in
    Int64.shift_right (Int64.shift_left v shift) shift

let mask_low v bytes =
  if bytes >= 8 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L (8 * bytes)) 1L)

(* Resolve one memory reference exactly like the engine's
   [resolve_access]: aligned references that land misaligned are
   tolerated at +2 cycles when the machine has an unaligned form of the
   width; unaligned-access instructions silently round the address down
   to the enclosing naturally-aligned word. *)
let access ctx env (m : Rtl.mem) ~is_load =
  let bytes = Width.bytes m.Rtl.width in
  match env_get env m.Rtl.base with
  | None ->
    ctx.approx <- true;
    {
      a_addr = None;
      a_raw = None;
      a_bytes = bytes;
      a_load = is_load;
      a_mis = false;
    }
  | Some base ->
    let addr = Int64.add base m.Rtl.disp in
    let w = Int64.of_int bytes in
    if m.Rtl.aligned then
      let mis =
        (not (Int64.equal (Int64.rem addr w) 0L))
        && List.exists
             (Width.equal m.Rtl.width)
             ctx.machine.Machine.unaligned_widths
      in
      {
        a_addr = Some addr;
        a_raw = Some addr;
        a_bytes = bytes;
        a_load = is_load;
        a_mis = mis;
      }
    else
      {
        a_addr = Some (Int64.mul (Int64.div addr w) w);
        a_raw = Some addr;
        a_bytes = bytes;
        a_load = is_load;
        a_mis = false;
      }

(* ------------------------------------------------------------------ *)
(* Trip-count solving from the exit candidates of three consecutive
   iterations: operand values evolve linearly, so equality exits reduce
   to a divisibility check and relational exits are monotone in the
   iteration number (exponential probe + binary search). *)

let trip_cap = 1 lsl 32

let solve_cand (c1 : cand) (c2 : cand option) (c3 : cand option) =
  match (c1.c_l, c1.c_r) with
  | Some l1, Some r1 -> (
    let deltas =
      match (c2, c3) with
      | Some c2, Some c3 -> (
        match (c2.c_l, c2.c_r, c3.c_l, c3.c_r) with
        | Some l2, Some r2, Some l3, Some r3
          when Int64.equal (Int64.sub l2 l1) (Int64.sub l3 l2)
               && Int64.equal (Int64.sub r2 r1) (Int64.sub r3 r2) ->
          Some (Int64.sub l2 l1, Int64.sub r2 r1)
        | _ -> None)
      | Some c2, None -> (
        match (c2.c_l, c2.c_r) with
        | Some l2, Some r2 -> Some (Int64.sub l2 l1, Int64.sub r2 r1)
        | _ -> None)
      | None, _ -> Some (0L, 0L)
    in
    match deltas with
    | None -> None
    | Some (dl, dr) -> (
      let exits n =
        let l = Int64.add l1 (Int64.mul dl (Int64.of_int (n - 1)))
        and r = Int64.add r1 (Int64.mul dr (Int64.of_int (n - 1))) in
        Rtl.eval_cmp c1.c_cmp l r = c1.c_exit_on
      in
      let eq_exit =
        (* Some true: exit exactly when l = r; Some false: when l <> r *)
        match (c1.c_cmp, c1.c_exit_on) with
        | Rtl.Eq, true | Rtl.Ne, false -> Some true
        | Rtl.Ne, true | Rtl.Eq, false -> Some false
        | _ -> None
      in
      match eq_exit with
      | Some on_equal ->
        let d0 = Int64.sub l1 r1 and dd = Int64.sub dl dr in
        if on_equal then
          if Int64.equal dd 0L then
            if Int64.equal d0 0L then Some 1 else None
          else if Int64.equal (Int64.rem d0 dd) 0L then begin
            let n = Int64.add 1L (Int64.neg (Int64.div d0 dd)) in
            if
              Int64.compare n 1L >= 0
              && Int64.compare n (Int64.of_int trip_cap) <= 0
            then Some (Int64.to_int n)
            else None
          end
          else None
        else if not (Int64.equal d0 0L) then Some 1
        else if Int64.equal dd 0L then None
        else Some 2
      | None ->
        if exits 1 then Some 1
        else begin
          let rec probe hi =
            if hi > trip_cap then None
            else if exits hi then begin
              let rec bin lo hi =
                (* invariant: not (exits lo), exits hi *)
                if hi - lo <= 1 then hi
                else
                  let mid = lo + ((hi - lo) / 2) in
                  if exits mid then bin lo mid else bin mid hi
              in
              Some (bin (hi / 2) hi)
            end
            else probe (hi * 2)
          in
          probe 2
        end))
  | _ -> None

(* Match the candidate records of the three passes by branch uid and
   solve each; the loop exits through the branch with the smallest
   solution. *)
let solve_trip t1 t2 t3 =
  let by_uid (tr : trace) uid =
    List.find_opt (fun c -> c.c_uid = uid) (List.rev tr.t_cands_rev)
  in
  List.fold_left
    (fun best c ->
      match solve_cand c (by_uid t2 c.c_uid) (by_uid t3 c.c_uid) with
      | Some n -> (
        match best with
        | Some (bn, _) when bn <= n -> best
        | _ -> Some (n, c.c_out))
      | None -> best)
    None
    (List.rev t1.t_cands_rev)

(* ------------------------------------------------------------------ *)
(* The walker. Mutates [env] and [tr]. [within] restricts the walk to a
   loop's block set; transferring to [stop_header] completes one
   iteration. Raw control transfers go through [resume], which applies
   the region rules and summarizes inner loops. *)

let rec walk ctx fi env tr ~depth ~within ~stop_header cur =
  let cfg = fi.fi_cfg in
  if cur < 0 || cur >= Array.length cfg.Cfg.blocks then Ret None
  else begin
    let b = cfg.Cfg.blocks.(cur) in
    let e =
      try
        List.iter
          (fun (inst : Rtl.inst) ->
            ctx.fuel <- ctx.fuel - 1;
            if ctx.fuel <= 0 then raise Out_of_fuel;
            tr.t_insts <- tr.t_insts + 1;
            let k = inst.Rtl.kind in
            let straight () =
              tr.t_straight_rev <- inst :: tr.t_straight_rev
            in
            match k with
            | Rtl.Label _ -> ()
            | Rtl.Nop -> straight ()
            | Rtl.Move (d, op) ->
              straight ();
              env_set env d (operand_value env op)
            | Rtl.Binop (op, d, l, r) ->
              straight ();
              let v =
                match (operand_value env l, operand_value env r) with
                | Some a, Some b -> (
                  try Some (Rtl.eval_binop op a b)
                  with Rtl.Division_by_zero -> None)
                | _ -> None
              in
              env_set env d v
            | Rtl.Unop (op, d, x) ->
              straight ();
              env_set env d
                (Option.map (Rtl.eval_unop op) (operand_value env x))
            | Rtl.Extract { dst; src; pos; width; sign } ->
              straight ();
              let v =
                match (env_get env src, operand_value env pos) with
                | Some s, Some p ->
                  Some
                    (Rtl.extract_bytes s ~pos:(Int64.to_int p) ~width ~sign)
                | _ -> None
              in
              env_set env dst v
            | Rtl.Insert { dst; src; pos; width } ->
              straight ();
              let v =
                match
                  ( env_get env dst,
                    operand_value env src,
                    operand_value env pos )
                with
                | Some d, Some s, Some p ->
                  Some
                    (Rtl.insert_bytes d ~src:s ~pos:(Int64.to_int p) ~width)
                | _ -> None
              in
              env_set env dst v
            | Rtl.Load { dst; src; sign } ->
              straight ();
              tr.t_loads <- tr.t_loads + 1;
              let a = access ctx env src ~is_load:true in
              tr.t_accs_rev <- a :: tr.t_accs_rev;
              tr.t_order_rev <- Acc a :: tr.t_order_rev;
              if a.a_mis then tr.t_mis <- tr.t_mis + 1;
              let v =
                match a.a_addr with
                | None -> None
                | Some addr -> (
                  match mem_read ctx addr a.a_bytes with
                  | None -> None
                  | Some raw -> (
                    match sign with
                    | Rtl.Signed -> Some (sext raw a.a_bytes)
                    | Rtl.Unsigned -> Some raw))
              in
              env_set env dst v
            | Rtl.Store { src; dst } ->
              straight ();
              tr.t_stores <- tr.t_stores + 1;
              let a = access ctx env dst ~is_load:false in
              tr.t_accs_rev <- a :: tr.t_accs_rev;
              tr.t_order_rev <- Acc a :: tr.t_order_rev;
              if a.a_mis then tr.t_mis <- tr.t_mis + 1;
              (match a.a_addr with
              | Some addr ->
                let v =
                  Option.map
                    (fun v -> mask_low v a.a_bytes)
                    (operand_value env src)
                in
                mem_write ctx addr a.a_bytes v
              | None ->
                (* a store to an unknown address could be anywhere *)
                ctx.approx <- true;
                forget_memory ctx)
            | Rtl.Call { dst; func; args } ->
              straight ();
              let ret = do_call ctx env tr ~depth func args in
              Option.iter (fun d -> env_set env d ret) dst
            | Rtl.Jump l -> (
              straight ();
              match Cfg.block_of_label cfg l with
              | Some b -> raise (Leave (OutTo b))
              | None -> raise (Leave (Ret None)))
            | Rtl.Branch { cmp; l; r; target } -> (
              straight ();
              let taken_blk = Cfg.block_of_label cfg target in
              let fall_blk = cur + 1 in
              let lv = operand_value env l
              and rv = operand_value env r in
              (match (within, taken_blk) with
              | Some blocks, Some tb ->
                let taken_in = Loop.IntSet.mem tb blocks in
                let fall_in = Loop.IntSet.mem fall_blk blocks in
                if taken_in <> fall_in then
                  tr.t_cands_rev <-
                    {
                      c_uid = inst.Rtl.uid;
                      c_cmp = cmp;
                      c_l = lv;
                      c_r = rv;
                      c_exit_on = not taken_in;
                      c_out = (if taken_in then fall_blk else tb);
                    }
                    :: tr.t_cands_rev
              | _ -> ());
              match (lv, rv) with
              | Some a, Some b ->
                if Rtl.eval_cmp cmp a b then (
                  match taken_blk with
                  | Some tb -> raise (Leave (OutTo tb))
                  | None -> raise (Leave (Ret None)))
                else raise (Leave (OutTo fall_blk))
              | _ -> (
                (* unknown condition: prefer the successor that stays in
                   the region — a data-dependent break is assumed not
                   taken; trip counts come from the counted exits *)
                ctx.approx <- true;
                match (within, taken_blk) with
                | Some blocks, Some tb
                  when (not (Loop.IntSet.mem fall_blk blocks))
                       && Loop.IntSet.mem tb blocks ->
                  raise (Leave (OutTo tb))
                | _ -> raise (Leave (OutTo fall_blk))))
            | Rtl.Ret op ->
              straight ();
              raise (Leave (Ret (Option.bind op (operand_value env)))))
          b.Cfg.insts;
        OutTo (cur + 1)
      with Leave e -> e
    in
    resume ctx fi env tr ~depth ~within ~stop_header e
  end

(* Apply the region rules to a raw transfer and continue walking. *)
and resume ctx fi env tr ~depth ~within ~stop_header e =
  match e with
  | Ret _ | Back -> e
  | OutTo b ->
    if stop_header = Some b then Back
    else
      let inside =
        match within with
        | Some blocks -> Loop.IntSet.mem b blocks
        | None -> true
      in
      if not inside then OutTo b
      else (
        match Hashtbl.find_opt fi.fi_headers b with
        | Some loop ->
          resume ctx fi env tr ~depth ~within ~stop_header
            (summarize ctx fi env tr ~depth loop)
        | None -> walk ctx fi env tr ~depth ~within ~stop_header b)

and do_call ctx env tr ~depth func args =
  match ctx.resolve func with
  | None ->
    (* unknown callee: unknown result, may have written anything *)
    ctx.approx <- true;
    forget_memory ctx;
    None
  | Some callee ->
    if depth > 12 then begin
      ctx.approx <- true;
      None
    end
    else begin
      let cfi = fninfo ctx callee in
      let cenv : env = Hashtbl.create 16 in
      List.iteri
        (fun i r ->
          match List.nth_opt args i with
          | Some op -> env_set cenv r (operand_value env op)
          | None -> ())
        callee.Func.params;
      if callee.Func.frame_bytes > 0 then
        Option.iter
          (fun fp ->
            env_set cenv fp
              (Some (Int64.of_int ((1 lsl 40) - ((depth + 1) * 65536)))))
          callee.Func.fp_reg;
      match
        resume ctx cfi cenv tr ~depth:(depth + 1) ~within:None
          ~stop_header:None
          (OutTo (Cfg.entry cfi.fi_cfg))
      with
      | Ret v -> v
      | _ -> None
    end

(* Loop summarization: up to three body walks; a loop that exits during
   a walked pass is exact straight-line code, otherwise the observed
   deltas are extrapolated by the solved trip count. *)
and summarize ctx fi env tr ~depth (loop : Loop.t) =
  let header = loop.Loop.header in
  let pass () =
    let t = mk_trace () in
    let x =
      walk ctx fi env t ~depth ~within:(Some loop.Loop.blocks)
        ~stop_header:(Some header) header
    in
    (t, x)
  in
  let merge t1 =
    tr.t_insts <- tr.t_insts + t1.t_insts;
    tr.t_straight_rev <- t1.t_straight_rev @ tr.t_straight_rev;
    tr.t_loads <- tr.t_loads + t1.t_loads;
    tr.t_stores <- tr.t_stores + t1.t_stores;
    tr.t_accs_rev <- t1.t_accs_rev @ tr.t_accs_rev;
    tr.t_loops_rev <- t1.t_loops_rev @ tr.t_loops_rev;
    tr.t_order_rev <- t1.t_order_rev @ tr.t_order_rev;
    tr.t_mis <- tr.t_mis + t1.t_mis
  in
  let t1, x1 = pass () in
  match x1 with
  | Ret _ | OutTo _ ->
    merge t1;
    x1
  | Back -> (
    let env1 = Hashtbl.copy env in
    let t2, x2 = pass () in
    match x2 with
    | Ret _ | OutTo _ ->
      merge t1;
      merge t2;
      x2
    | Back -> (
      let env2 = Hashtbl.copy env in
      let t3, x3 = pass () in
      match x3 with
      | Ret _ | OutTo _ ->
        merge t1;
        merge t2;
        merge t3;
        x3
      | Back ->
        let env3 = Hashtbl.copy env in
        extrapolate ctx fi env tr loop ~header (t1, env1) (t2, env2)
          (t3, env3)))

(* Three full iterations observed: solve the trip count, extrapolate the
   exit state, build the access streams and fold them into misses and
   cycles. *)
and extrapolate ctx fi env tr loop ~header (t1, env1) (t2, env2) (t3, env3) =
  let machine = ctx.machine in
  let line = ctx.line in
  let trip, exit_out =
    match solve_trip t1 t2 t3 with
    | Some (n, out) -> (max n 4, Some out)
    | None ->
      ctx.approx <- true;
      let out =
        match List.rev t1.t_cands_rev with
        | c :: _ -> Some c.c_out
        | [] ->
          Loop.IntSet.fold
            (fun b acc ->
              match acc with
              | Some _ -> acc
              | None ->
                List.find_opt
                  (fun s -> not (Loop.IntSet.mem s loop.Loop.blocks))
                  fi.fi_cfg.Cfg.succ.(b))
            loop.Loop.blocks None
      in
      (4, out)
  in
  let trip = min trip trip_cap in
  (* exit environment: registers whose per-iteration delta was stable
     across the three passes evolve linearly from iteration 1 *)
  Hashtbl.reset env;
  Hashtbl.iter
    (fun r v3 ->
      match (Hashtbl.find_opt env1 r, Hashtbl.find_opt env2 r) with
      | Some v1, Some v2 ->
        let d12 = Int64.sub v2 v1 and d23 = Int64.sub v3 v2 in
        if Int64.equal d12 d23 then
          Hashtbl.replace env r
            (Int64.add v1 (Int64.mul d12 (Int64.of_int (trip - 1))))
        else ctx.approx <- true
      | _ -> ctx.approx <- true)
    env3;
  (* direct access streams: positional match of the three passes *)
  let a1 = Array.of_list (List.rev t1.t_accs_rev)
  and a2 = Array.of_list (List.rev t2.t_accs_rev)
  and a3 = Array.of_list (List.rev t3.t_accs_rev) in
  let same_shape =
    Array.length a1 = Array.length a2 && Array.length a2 = Array.length a3
  in
  if not same_shape then ctx.approx <- true;
  let synth = ref 0 in
  let fresh_region () =
    incr synth;
    (1 lsl 45) + (!synth * (1 lsl 22))
  in
  let mis_per_iter = ref 0 in
  let mk_direct i (x2 : aentry) =
    if x2.a_mis then incr mis_per_iter;
    let resolved =
      if same_shape then
        match (a1.(i).a_raw, x2.a_raw, a3.(i).a_raw) with
        | Some p1, Some p2, Some p3 ->
          let s12 = Int64.sub p2 p1 and s23 = Int64.sub p3 p2 in
          if not (Int64.equal s12 s23) then ctx.approx <- true;
          Some (Int64.to_int p1, Int64.to_int s23)
        | _, Some p2, Some p3 ->
          let s = Int64.to_int (Int64.sub p3 p2) in
          Some (Int64.to_int p2 - s, s)
        | _ -> None
      else None
    in
    let start, stride =
      match resolved with
      | Some (o, s) -> (o, s)
      | None ->
        (* unknown stream: priced as a fresh line every iteration in its
           own synthetic region *)
        ctx.approx <- true;
        (fresh_region (), line)
    in
    {
      Reuse.start;
      stride;
      width = x2.a_bytes;
      count = trip;
      loads = (if x2.a_load then 1 else 0);
      stores = (if x2.a_load then 0 else 1);
    }
  in
  let direct_accs = Array.to_list (Array.mapi mk_direct a2) in
  (* inner loops: lift each footprint window as an access advancing by
     the window's shift between pass 2 and pass 3 *)
  let l2 = List.rev t2.t_loops_rev and l3 = List.rev t3.t_loops_rev in
  let same_loops =
    List.length (List.rev t1.t_loops_rev) = List.length l2
    && List.length l2 = List.length l3
  in
  if not same_loops then ctx.approx <- true;
  let inner = l3 in
  let lifted_accs =
    List.concat
      (List.mapi
         (fun i (ls3 : loopsum) ->
           let w2 =
             if same_loops then
               Option.map
                 (fun (l : loopsum) -> l.ls_lift)
                 (List.nth_opt l2 i)
             else None
           in
           List.mapi
             (fun j (lo3, w, _) ->
               let stride =
                 match w2 with
                 | Some w2 when List.length w2 = List.length ls3.ls_lift
                   -> (
                   match List.nth_opt w2 j with
                   | Some (lo2, _, _) -> Some (lo3 - lo2)
                   | None -> None)
                 | _ -> None
               in
               match stride with
               | Some s ->
                 {
                   Reuse.start = lo3 - (2 * s);
                   stride = s;
                   width = w;
                   count = trip;
                   loads = 0;
                   stores = 0;
                 }
               | None ->
                 ctx.approx <- true;
                 {
                   Reuse.start = fresh_region ();
                   stride = line;
                   width = w;
                   count = trip;
                   loads = 0;
                   stores = 0;
                 })
             ls3.ls_lift)
         inner)
  in
  let direct_groups = Reuse.group_accesses ~line direct_accs in
  let lifted_groups = Reuse.group_accesses ~line lifted_accs in
  let all_groups = direct_groups @ lifted_groups in
  let bytes_iter =
    List.fold_left
      (fun n g -> n + Reuse.group_bytes_per_iter g)
      0 all_groups
  in
  let inner_thrashed =
    List.exists (fun (ls : loopsum) -> ls.ls_thrashed) inner
  in
  (* the reuse-distance proxy: a line touched this iteration is touched
     again next iteration after one iteration's footprint of traffic —
     if that fits the cache, cross-iteration reuse is credited by
     counting distinct lines over the whole sweep; otherwise the loop
     thrashes and pays per iteration *)
  let merged = bytes_iter <= ctx.csize && not inner_thrashed in
  let misses =
    if merged then
      List.fold_left (fun n g -> n + Reuse.group_lines ~line g) 0 all_groups
    else
      (trip
      * List.fold_left (fun n (ls : loopsum) -> n + ls.ls_misses) 0 inner)
      + List.fold_left
          (fun n g -> n + Reuse.group_lines_cold ~line g)
          0 direct_groups
  in
  (* footprint for the parent: extents of every group, sorted, each with
     the fraction of its extent's lines the sweep actually touches (a
     line-multiple stride leaves gaps that must not earn reuse credit) *)
  let lift =
    List.sort compare
      (List.map
         (fun g ->
           let lo, hi = Reuse.group_extent g in
           let w = max 0 (hi - lo) in
           let extent_lines =
             max 1 (((lo + w + line - 1) / line) - (lo / line))
           in
           let density =
             Float.min 1.0
               (float_of_int (Reuse.group_lines ~line g)
               /. float_of_int extent_lines)
           in
           (lo, w, density))
         all_groups)
  in
  (* cycles per entry: first iteration priced in order from cold stall
     state, then the warmed steady-state marginal (seq(body@body) -
     seq(body) carries the loop-carried stalls), plus the inner loops
     and the engine's +2 misalignment tolerance *)
  let straight = List.rev t3.t_straight_rev in
  let first = Sched.sequential_cycles machine straight in
  let steady =
    Sched.sequential_cycles machine (straight @ straight) - first
  in
  let inner_cycles =
    List.fold_left (fun n (ls : loopsum) -> n + ls.ls_cycles) 0 inner
  in
  let cycles =
    first
    + ((trip - 1) * max 0 steady)
    + (trip * inner_cycles)
    + (trip * 2 * !mis_per_iter)
  in
  (* after the whole sweep, stored regions hold values the walked passes
     did not compute: stop trusting remembered contents there *)
  List.iter
    (fun (g : Reuse.group) ->
      if g.Reuse.gstores > 0 then begin
        let lo, hi = Reuse.group_extent g in
        mark_dirty ctx lo hi;
        if g.Reuse.gstride = 0 then drop_overlay_in ctx lo hi
      end)
    direct_groups;
  let label =
    match fi.fi_cfg.Cfg.blocks.(header).Cfg.label with
    | Some l -> l
    | None -> Printf.sprintf "%s#%d" fi.fi_func.Func.name header
  in
  let refs =
    List.map
      (fun (a : Reuse.access) ->
        {
          Reuse.r_start = a.Reuse.start;
          r_stride = a.Reuse.stride;
          r_width = a.Reuse.width;
          r_count = a.Reuse.count;
          r_loads = a.Reuse.loads;
          r_stores = a.Reuse.stores;
          r_klass = Reuse.classify ~line a;
          r_lines =
            Reuse.sweep_lines ~line ~stride:a.Reuse.stride ~count:trip
              [ (a.Reuse.start, a.Reuse.width) ];
        })
      direct_accs
  in
  let self_profile =
    {
      Reuse.l_label = label;
      l_depth = 0;
      l_trip = trip;
      l_entries = 1;
      l_refs = refs;
      l_misses = misses;
      l_cycles = cycles;
      l_insts = trip * t3.t_insts;
      l_merged = merged;
      l_approx = not (same_shape && same_loops);
    }
  in
  let child_profiles =
    List.concat_map
      (fun (ls : loopsum) ->
        List.map
          (fun (p : Reuse.loop_profile) ->
            {
              p with
              Reuse.l_depth = p.Reuse.l_depth + 1;
              l_entries = p.Reuse.l_entries * trip;
            })
          ls.ls_profiles)
      inner
  in
  let ls =
    {
      ls_trip = trip;
      ls_insts = trip * t3.t_insts;
      ls_cycles = cycles;
      ls_loads = trip * t3.t_loads;
      ls_stores = trip * t3.t_stores;
      ls_misses = misses;
      ls_lift = lift;
      ls_thrashed = (not merged) || inner_thrashed;
      ls_profiles = self_profile :: child_profiles;
    }
  in
  tr.t_insts <- tr.t_insts + ls.ls_insts;
  tr.t_loads <- tr.t_loads + ls.ls_loads;
  tr.t_stores <- tr.t_stores + ls.ls_stores;
  tr.t_loops_rev <- ls :: tr.t_loops_rev;
  tr.t_order_rev <- Lp ls :: tr.t_order_rev;
  match exit_out with Some b -> OutTo b | None -> Ret None

(* ------------------------------------------------------------------ *)
(* Whole-function estimation: walk from the entry, then fold the
   construct sequence through a FIFO residency model (crediting a loop
   that re-reads what a previous construct left in the cache) and price
   the totals. *)

(* The synthetic frame-pointer value bound when the function was
   register-allocated: spill traffic is estimated against a region far
   from any workload buffer. *)
let frame_base = Int64.of_int (1 lsl 40)

let func ?(model_icache = false) ?read ?resolve ~machine ~args
    (f : Func.t) =
  let ctx =
    {
      machine;
      line = machine.Machine.dcache.Machine.line_bytes;
      csize = machine.Machine.dcache.Machine.size_bytes;
      read;
      resolve = (match resolve with Some r -> r | None -> fun _ -> None);
      fns = Hashtbl.create 4;
      overlay = Hashtbl.create 64;
      dirty = [];
      fuel = 2_000_000;
      approx = false;
    }
  in
  let fi = fninfo ctx f in
  let env : env = Hashtbl.create 16 in
  List.iteri
    (fun i r ->
      match List.nth_opt args i with
      | Some v -> env_set env r (Some v)
      | None -> ())
    f.Func.params;
  if f.Func.frame_bytes > 0 then
    Option.iter (fun fp -> env_set env fp (Some frame_base)) f.Func.fp_reg;
  let tr = mk_trace () in
  (try
     ignore
       (resume ctx fi env tr ~depth:0 ~within:None ~stop_header:None
          (OutTo (Cfg.entry fi.fi_cfg)))
   with Out_of_fuel -> ctx.approx <- true);
  let line = ctx.line in
  let align lo hi = (lo / line * line, (hi + line - 1) / line * line) in
  let r = Reuse.residency ~size:ctx.csize in
  let misses = ref 0 in
  List.iter
    (function
      | Acc a -> (
        match a.a_addr with
        | Some addr ->
          let lo = Int64.to_int addr in
          let llo, lhi = align lo (lo + a.a_bytes) in
          let resident = Reuse.consume r ~lo:llo ~hi:lhi () in
          misses := !misses + ((lhi - llo) / line) - (resident / line)
        | None -> misses := !misses + 1)
      | Lp ls ->
        if ls.ls_thrashed then begin
          misses := !misses + ls.ls_misses;
          List.iter
            (fun (lo, w, d) ->
              let llo, lhi = align lo (lo + w) in
              ignore (Reuse.consume r ~density:d ~lo:llo ~hi:lhi ()))
            ls.ls_lift
        end
        else begin
          let credit =
            List.fold_left
              (fun c (lo, w, d) ->
                let llo, lhi = align lo (lo + w) in
                c + (Reuse.consume r ~density:d ~lo:llo ~hi:lhi () / line))
              0 ls.ls_lift
          in
          misses := !misses + max 0 (ls.ls_misses - credit)
        end)
    (List.rev tr.t_order_rev);
  let straight = List.rev tr.t_straight_rev in
  let base = Sched.sequential_cycles machine straight in
  let loop_cycles =
    List.fold_left
      (fun n (ls : loopsum) -> n + ls.ls_cycles)
      0 tr.t_loops_rev
  in
  let icache_misses =
    if not model_icache then 0
    else begin
      (* the engine fetches through 32-byte lines at synthetic
         sequential addresses: the cold footprint is the static code
         span; a function larger than the icache also pays capacity
         misses we do not model (flagged approximate) *)
      let code_insts =
        List.length
          (List.filter
             (fun (i : Rtl.inst) ->
               match i.Rtl.kind with
               | Rtl.Label _ | Rtl.Nop -> false
               | _ -> true)
             f.Func.body)
      in
      let code_bytes = code_insts * machine.Machine.bytes_per_inst in
      if code_bytes > machine.Machine.icache_bytes then ctx.approx <- true;
      (code_bytes + 31) / 32
    end
  in
  let cycles =
    base + loop_cycles + (2 * tr.t_mis)
    + (!misses * machine.Machine.dcache.Machine.miss_penalty)
    + (icache_misses * machine.Machine.icache_miss_penalty)
  in
  let profiles =
    List.concat_map
      (function Lp ls -> ls.ls_profiles | Acc _ -> [])
      (List.rev tr.t_order_rev)
  in
  {
    Reuse.s_insts = tr.t_insts;
    s_cycles = cycles;
    s_loads = tr.t_loads;
    s_stores = tr.t_stores;
    s_misses = !misses;
    s_icache_misses = icache_misses;
    s_loops = profiles;
    s_approx = ctx.approx;
  }

(* ------------------------------------------------------------------ *)
(* Per-iteration miss cycles of a loop body, from partition strides —
   the term the [Estimate] profitability mode adds on top of the
   schedule latency. No concrete environment here: reference positions
   come from the partitions' relative offsets, each partition in its own
   synthetic region. *)

let horizon = 256

let body_miss_cycles ~machine body =
  let line = machine.Machine.dcache.Machine.line_bytes in
  let pa = Partition.analyze body in
  let synth = ref 0 in
  let accs =
    List.concat_map
      (fun (p : Partition.t) ->
        let adv = Partition.advance pa p in
        let base_off =
          match Partition.offsets p with o :: _ -> o | [] -> 0L
        in
        List.map
          (fun (r : Partition.ref_info) ->
            let width = Width.bytes r.Partition.mem.Rtl.width in
            let is_load =
              match r.Partition.dir with
              | Partition.Dload _ -> true
              | Partition.Dstore _ -> false
            in
            let off =
              Int64.to_int
                (Int64.sub r.Partition.addr.Linform.const base_off)
            in
            match adv with
            | Some s ->
              {
                Reuse.start = (p.Partition.id * (1 lsl 22)) + off;
                stride = Int64.to_int s;
                width;
                count = horizon;
                loads = (if is_load then 1 else 0);
                stores = (if is_load then 0 else 1);
              }
            | None ->
              incr synth;
              {
                Reuse.start = (1 lsl 45) + (!synth * (1 lsl 22));
                stride = line;
                width;
                count = horizon;
                loads = (if is_load then 1 else 0);
                stores = (if is_load then 0 else 1);
              })
          p.Partition.refs)
      pa.Partition.partitions
  in
  let groups = Reuse.group_accesses ~line accs in
  let bytes_iter =
    List.fold_left (fun n g -> n + Reuse.group_bytes_per_iter g) 0 groups
  in
  let misses =
    if bytes_iter <= machine.Machine.dcache.Machine.size_bytes then
      List.fold_left (fun n g -> n + Reuse.group_lines ~line g) 0 groups
    else
      List.fold_left (fun n g -> n + Reuse.group_lines_cold ~line g) 0 groups
  in
  misses * machine.Machine.dcache.Machine.miss_penalty

(* ------------------------------------------------------------------ *)

let pp_summary ~machine ppf (s : Reuse.summary) =
  let open Format in
  fprintf ppf
    "@[<v>predicted on %s: %d insts, %d cycles, %d loads, %d stores, %d \
     dcache misses%s%s@,"
    machine.Machine.name s.Reuse.s_insts s.Reuse.s_cycles s.Reuse.s_loads
    s.Reuse.s_stores s.Reuse.s_misses
    (if s.Reuse.s_icache_misses > 0 then
       Printf.sprintf ", %d icache misses" s.Reuse.s_icache_misses
     else "")
    (if s.Reuse.s_approx then " (approximate)" else "");
  List.iter
    (fun (l : Reuse.loop_profile) ->
      fprintf ppf "%s loop %s: %d iters x %d entries, %d insts, %d misses, \
                   %d cycles per entry%s%s@,"
        (String.make (2 * (l.Reuse.l_depth + 1)) ' ')
        l.Reuse.l_label l.Reuse.l_trip l.Reuse.l_entries l.Reuse.l_insts
        l.Reuse.l_misses l.Reuse.l_cycles
        (if l.Reuse.l_merged then "" else " [thrash]")
        (if l.Reuse.l_approx then " [approx]" else "");
      List.iter
        (fun (r : Reuse.ref_profile) ->
          fprintf ppf "%s %s stride=%+d width=%d %s: %d lines@,"
            (String.make ((2 * (l.Reuse.l_depth + 1)) + 2) ' ')
            (if r.Reuse.r_loads > 0 then "load" else "store")
            r.Reuse.r_stride r.Reuse.r_width
            (Reuse.klass_to_string r.Reuse.r_klass)
            r.Reuse.r_lines)
        l.Reuse.l_refs)
    s.Reuse.s_loops;
  fprintf ppf "@]"
