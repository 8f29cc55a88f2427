open Mac_rtl

let log_src = Logs.Src.create "mac.coalesce" ~doc:"memory access coalescing"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Linform = Mac_opt.Linform
module Cfg = Mac_cfg.Cfg
module Dom = Mac_cfg.Dom
module Loop = Mac_cfg.Loop
module Machine = Mac_machine.Machine
module Unroll = Mac_opt.Unroll

type options = {
  coalesce_loads : bool;
  coalesce_stores : bool;
  unroll_only : bool;
  runtime_checks : bool;
  respect_profitability : bool;
  profit_mode : Profitability.mode;
  icache_guard : bool;
  remainder_loop : bool;
  force_guards : bool;
}

let default =
  {
    coalesce_loads = true;
    coalesce_stores = true;
    unroll_only = false;
    runtime_checks = true;
    respect_profitability = true;
    profit_mode = Profitability.Schedule;
    icache_guard = true;
    remainder_loop = false;
    force_guards = false;
  }

type status =
  | Coalesced
  | Unrolled_only
  | No_narrow_refs
  | Rejected of string

type loop_report = {
  header : Rtl.label;
  factor : int;
  status : status;
  main_label : Rtl.label option;
  safe_label : Rtl.label option;
  load_groups : int;
  store_groups : int;
  stats : Transform.stats option;
  decision : Profitability.decision option;
  check_insts : int;
  guards_emitted : int;
  guards_elided : int;
  elisions : Disambig.elision list;
}

let report ?(factor = 1) ?main_label ?safe_label ?(load_groups = 0)
    ?(store_groups = 0) ?stats ?decision ?(check_insts = 0)
    ?(guards_emitted = 0) ?(guards_elided = 0) ?(elisions = []) header status
    =
  { header; factor; status; main_label; safe_label; load_groups;
    store_groups; stats; decision; check_insts; guards_emitted;
    guards_elided; elisions }

(* Widening factor: widest word over the narrowest coalescable reference
   width in the body, capped at [max_factor]. *)
let max_factor = 8

let widen_factor_of_body (m : Machine.t) body =
  let narrowest =
    List.fold_left
      (fun acc (i : Rtl.inst) ->
        match Rtl.mem_of i.kind with
        | Some mem when Width.compare mem.width m.word < 0 -> (
          match acc with
          | Some w when Width.compare w mem.width <= 0 -> acc
          | _ -> Some mem.width)
        | _ -> acc)
      None body
  in
  match narrowest with
  | None -> None
  | Some w -> Some (Stdlib.min (Machine.widen_factor m w) max_factor)

(* Splice [checks] just before the main label and replace the main loop's
   interior with [new_body] (when given). *)
let splice_main f ~main_label ~checks ~new_body =
  let rec go acc = function
    | [] -> List.rev acc
    | ({ Rtl.kind = Rtl.Label l; _ } as label_inst) :: rest
      when String.equal l main_label ->
      let rec split_body body_acc = function
        | [] -> (List.rev body_acc, [])
        | (i : Rtl.inst) :: rest' when Rtl.is_terminator i.kind ->
          (List.rev body_acc, i :: rest')
        | i :: rest' -> split_body (i :: body_acc) rest'
      in
      let old_body, tail = split_body [] rest in
      let body = Option.value new_body ~default:old_body in
      List.rev_append acc (checks @ (label_inst :: body) @ tail)
    | i :: rest -> go (i :: acc) rest
  in
  Func.set_body f (go [] f.body)

let group_is_load (g : Partition.group) =
  match g.members with
  | { Partition.dir = Partition.Dload _; _ } :: _ -> true
  | _ -> false

exception Infeasible of string

(* Run-time checks for the accepted groups: one alignment check per
   partition (windows in one partition share a residue) and one overlap
   check per distinct alias pair. Each guard is first offered to the
   static disambiguation oracle; a proved guard is elided, carrying its
   certificate in the report for the audit to re-verify. Emitted guards
   share a materialization memo — one dispatch sequence is straight-line,
   so a base evaluated for the alignment check is reused by the alias
   bounds. *)
let emit_checks f ~safe_label ~(trip_mega : Mac_opt.Induction.trip)
    ~analysis ~groups ~pairs ~oracle =
  let memo = Checks.create_memo () in
  let emitted = ref 0 and elided = ref 0 in
  let elisions = ref [] in
  let elide target reason cert =
    incr elided;
    elisions := { Disambig.target; reason; cert } :: !elisions
  in
  let alignment_done = Hashtbl.create 4 in
  let align_checks =
    List.concat_map
      (fun (g : Partition.group) ->
        (* one check per (partition, window residue): windows of one
           selection share a residue, but a partition's load and store
           windows may not *)
        let residue =
          Int64.rem g.window_start (Int64.of_int (Width.bytes g.wide))
        in
        let key = (g.partition.id, residue) in
        if Hashtbl.mem alignment_done key then []
        else begin
          Hashtbl.add alignment_done key ();
          let proved =
            match oracle with
            | None -> None
            | Some o ->
              Disambig.prove_alignment o ~terms:g.partition.terms
                ~window:g.window_start ~wide:g.wide
          in
          match proved with
          | Some cert ->
            elide
              (Format.asprintf "align p%d+%Ld mod %d" g.partition.id
                 g.window_start (Width.bytes g.wide))
              "align:congruence" (Disambig.Align cert);
            []
          | None -> (
            incr emitted;
            let addr =
              { Linform.const = g.window_start; terms = g.partition.terms }
            in
            match
              Checks.alignment_check ~memo f ~safe_label ~addr ~wide:g.wide
            with
            | Some kinds -> kinds
            | None -> raise (Infeasible "alignment check not expressible"))
        end)
      groups
  in
  (* The footprint the transformed loop will actually touch: the hull of
     the selected wide windows plus any references left narrow. Wide
     loads read slack bytes the raw references never named, so this can
     be strictly wider than the raw extent. The audit re-derives extents
     from the output RTL, where only the widened shape is visible — a
     static overlap proof must therefore be carried out over this
     footprint or its certificate will not replay. (The dynamic guard
     keeps the raw extent: slack bytes are discarded by the extracts, so
     overlap on them cannot change a loaded value.) *)
  let widen (p : Partition.t) (e : Checks.extent) =
    let wins =
      List.filter
        (fun (g : Partition.group) -> g.partition.Partition.id = p.id)
        groups
    in
    if wins = [] then e
    else begin
      let covered = Hashtbl.create 8 in
      List.iter
        (fun (g : Partition.group) ->
          List.iter
            (fun (r : Partition.ref_info) ->
              Hashtbl.replace covered r.Partition.index ())
            g.members)
        wins;
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (g : Partition.group) ->
            ( Int64.min lo g.window_start,
              Int64.max hi
                (Int64.add g.window_start
                   (Int64.of_int (Width.bytes g.wide))) ))
          (Int64.max_int, Int64.min_int)
          wins
      in
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (r : Partition.ref_info) ->
            if Hashtbl.mem covered r.Partition.index then (lo, hi)
            else
              let l = r.addr.Linform.const in
              let h =
                Int64.add l (Int64.of_int (Width.bytes r.mem.Rtl.width))
              in
              (Int64.min lo l, Int64.max hi h))
          (lo, hi) p.refs
      in
      { e with Checks.lo_off = lo; hi_off = hi }
    end
  in
  let pair_done = Hashtbl.create 4 in
  let alias_checks =
    List.concat_map
      (fun (p : Hazard.alias_pair) ->
        let key =
          ( Stdlib.min p.this.Partition.id p.other.Partition.id,
            Stdlib.max p.this.Partition.id p.other.Partition.id )
        in
        if Hashtbl.mem pair_done key then []
        else begin
          Hashtbl.add pair_done key ();
          match
            ( Checks.extent_of analysis p.this,
              Checks.extent_of analysis p.other )
          with
          | Some a, Some b -> (
            let proved =
              match oracle with
              | None -> None
              | Some o ->
                Disambig.prove_noalias o ~trip:trip_mega
                  ~a:(widen p.this a) ~b:(widen p.other b)
            in
            match proved with
            | Some cert ->
              elide
                (Format.asprintf "alias p%d/p%d" (fst key) (snd key))
                "alias:provenance" (Disambig.Alias cert);
              []
            | None -> (
              incr emitted;
              match
                Checks.alias_check ~memo f ~safe_label ~trip:trip_mega ~a ~b
              with
              | Some kinds -> kinds
              | None -> raise (Infeasible "alias check not expressible")))
          | _ -> raise (Infeasible "alias extents unknown")
        end)
      pairs
  in
  (align_checks @ alias_checks, !emitted, !elided, List.rev !elisions)

(* Returns the report plus the labels of loops this transformation itself
   created (the unrolled main loop and the safe copy), which must not be
   re-processed. *)
let process_loop am facts f (m : Machine.t) opts (s : Loop.simple) =
  let header = s.header_label in
  match widen_factor_of_body m s.body with
  | None -> (report header No_narrow_refs, [])
  | Some factor when factor < 2 -> (report header No_narrow_refs, [])
  | Some factor -> (
    let machine_for_unroll =
      if opts.icache_guard then m
      else { m with icache_bytes = max_int / 16 }
    in
    (* Guard code this pass will materialize next to the unrolled loop —
       the divisibility dispatch plus, per partition of the rolled body,
       an alignment check and its memoised preheader address computation
       (about six instructions each). The icache-fit test must charge
       for it, or a loop that barely fits the 68030's cache unrolled
       gets coalesced into one that no longer does. *)
    let overhead_insts =
      if opts.unroll_only then 4
      else
        4
        + (6 * List.length (Partition.analyze s.body).Partition.partitions)
    in
    match
      Unroll.run f ~machine:machine_for_unroll ~factor
        ~remainder:opts.remainder_loop ~overhead_insts s
    with
    | None -> (report header (Rejected "loop shape not unrollable") ~factor, [])
    | Some u -> (
      (* The unroller rewrote the body: duplicated blocks, a dispatch
         chain, new labels. Nothing cached survives. *)
      Mac_dataflow.Analysis.invalidate_all am;
      let created = [ u.Unroll.main_label; u.Unroll.safe_label ] in
      (* Every report below describes the unrolled shape; carry the created
         labels so the safety auditor can re-find both loop versions. *)
      let report =
        report ~main_label:u.Unroll.main_label ~safe_label:u.Unroll.safe_label
      in
      let base_checks = 4 (* the unroller's divisibility dispatch *) in
      if opts.unroll_only then
        (report header Unrolled_only ~factor ~check_insts:base_checks, created)
      else
        (* Re-find the unrolled main loop and analyze it. *)
        let cfg = Mac_dataflow.Analysis.cfg am in
        match Cfg.block_of_label cfg u.main_label with
        | None ->
          (report header (Rejected "internal: main loop lost") ~factor, created)
        | Some main_idx -> (
          let block = cfg.blocks.(main_idx) in
          let interior =
            Cfg.non_label_insts block
            |> List.filter (fun (i : Rtl.inst) ->
                   not (Rtl.is_terminator i.kind))
          in
          let back =
            List.find (fun (i : Rtl.inst) -> Rtl.is_terminator i.kind)
              (List.rev block.insts)
          in
          let analysis = Partition.analyze interior in
          let wide = m.word in
          let wide_bytes = Int64.of_int (Width.bytes wide) in
          let stable p =
            match Partition.advance analysis p with
            | Some adv -> Int64.equal (Int64.rem adv wide_bytes) 0L
            | None -> false
          in
          let candidate_groups =
            List.concat_map
              (fun (p : Partition.t) ->
                if not (stable p) then []
                else
                  let load_groups =
                    if opts.coalesce_loads then
                      Partition.select_load_groups p ~wide
                    else []
                  in
                  (* Store windows of the same partition must share the
                     load windows' start residue: the run-time alignment
                     check can only pass for one residue class. *)
                  let residue =
                    match load_groups with
                    | (g : Partition.group) :: _ ->
                      let w = Int64.of_int (Width.bytes g.wide) in
                      let r = Int64.rem g.window_start w in
                      Some
                        (if Int64.compare r 0L < 0 then Int64.add r w else r)
                    | [] -> None
                  in
                  load_groups
                  @
                  if opts.coalesce_stores then
                    Partition.select_store_groups ?residue p ~wide
                  else [])
              analysis.partitions
          in
          (* Hazard analysis per group; keep each accepted group with the
             run-time alias pairs it requires. *)
          let safe_groups =
            List.filter_map
              (fun g ->
                match Hazard.check ~body:interior ~analysis ~group:g with
                | Hazard.Safe pairs_g ->
                  if (not opts.runtime_checks) && pairs_g <> [] then None
                  else Some (g, pairs_g)
                | Hazard.Unsafe _ -> None)
              candidate_groups
          in
          let safe_groups =
            (* Alignment of the wide window is never provable statically in
               this IR (bases are parameters), so the static-only ablation
               drops every group. *)
            if opts.runtime_checks then safe_groups else []
          in
          if safe_groups = [] then
            (report header Unrolled_only ~factor ~check_insts:base_checks,
             created)
          else
            (* Candidate variants, in the paper's order: loads alone, then
               loads plus stores. With the profitability gate on (Fig. 3),
               keep the cheapest scheduled variant; with it off, apply
               everything the level asked for — which is how the paper's
               measurements behave (the 68030 columns measure *slower*
               code, so the transformation was clearly applied
               unconditionally there). *)
            let load_variant =
              List.filter (fun (g, _) -> group_is_load g) safe_groups
            in
            (* The original body is priced once per loop, inside the
               first variant's decision, so after that variant's rewrite:
               both mint registers in [f], and the output's register
               numbers follow that order. *)
            let before =
              lazy
                (Profitability.price f ~machine:m ~mode:opts.profit_mode
                   (interior @ [ back ]))
            in
            let price groups_pairs =
              let groups = List.map fst groups_pairs in
              let body_after, stats =
                Transform.apply_groups f ~body:interior ~groups
              in
              let decision =
                Profitability.analyze f ~machine:m ~mode:opts.profit_mode
                  ~before ~after:(body_after @ [ back ])
              in
              (groups_pairs, body_after, stats, decision)
            in
            let variants =
              List.filter (fun gs -> gs <> []) [ load_variant; safe_groups ]
              |> List.sort_uniq Stdlib.compare
              |> List.map price
            in
            let best =
              if opts.respect_profitability then
                List.fold_left
                  (fun acc ((_, _, _, d) as v) ->
                    match acc with
                    | Some (_, _, _, db)
                      when db.Profitability.after_cycles
                           <= d.Profitability.after_cycles ->
                      acc
                    | _ -> if d.Profitability.profitable then Some v else acc)
                  None variants
              else
                (* forced: the largest variant the level asked for *)
                match List.rev variants with
                | v :: _ -> Some v
                | [] -> None
            in
            match best with
            | None ->
              let decision =
                match variants with
                | (_, _, _, d) :: _ -> Some d
                | [] -> None
              in
              ( report header (Rejected "not profitable") ~factor ?decision
                  ~check_insts:base_checks,
                created )
            | Some (chosen, body_after, stats, decision) ->
              let safe_groups = List.map fst chosen in
              let pairs = List.concat_map snd chosen in
              let trip_mega =
                (* One "iteration" of the analysed (unrolled) body covers
                   [factor] original steps; keep the adjusted distance
                   formula exact by moving the step change into the
                   offset. *)
                let step_mega =
                  Int64.mul u.trip.iv.step (Int64.of_int u.factor)
                in
                {
                  u.trip with
                  iv = { u.trip.iv with step = step_mega };
                  offset =
                    Int64.add u.trip.offset
                      (Int64.sub step_mega u.trip.iv.step);
                }
              in
              let oracle =
                if opts.force_guards || Disambig.no_facts facts then None
                else Disambig.oracle ~facts ~cfg ~main_label:u.main_label
              in
              (match
                 emit_checks f ~safe_label:u.safe_label ~trip_mega ~analysis
                   ~groups:safe_groups ~pairs ~oracle
               with
              | exception Infeasible reason ->
                ( report header (Rejected reason) ~factor ~decision
                    ~check_insts:base_checks,
                  created )
              | check_kinds, guards_emitted, guards_elided, elisions ->
                let checks = List.map (Func.inst f) check_kinds in
                splice_main f ~main_label:u.main_label ~checks
                  ~new_body:(Some body_after);
                Mac_dataflow.Analysis.invalidate_all am;
                let load_groups =
                  List.length (List.filter group_is_load safe_groups)
                in
                let store_groups =
                  List.length safe_groups - load_groups
                in
                ( report header Coalesced ~factor ~load_groups ~store_groups
                    ~stats ~decision
                    ~check_insts:(base_checks + List.length check_kinds)
                    ~guards_emitted ~guards_elided ~elisions,
                  created )))))

let run ?am ?(facts = Disambig.empty) f ~machine opts =
  let am =
    match am with Some am -> am | None -> Mac_dataflow.Analysis.create f
  in
  let processed = Hashtbl.create 8 in
  let reports = ref [] in
  let rec iterate () =
    let cfg = Mac_dataflow.Analysis.cfg am in
    let loops = Mac_dataflow.Analysis.loops am in
    let candidate =
      List.find_map
        (fun l ->
          match Loop.simple_of cfg l with
          | Some s when not (Hashtbl.mem processed s.header_label) -> Some s
          | _ -> None)
        loops
    in
    match candidate with
    | None -> ()
    | Some s ->
      Hashtbl.add processed s.header_label ();
      let rep, created = process_loop am facts f machine opts s in
      Log.info (fun m ->
          m "%s/%s: %s" f.Func.name rep.header
            (match rep.status with
            | Coalesced -> "coalesced"
            | Unrolled_only -> "unrolled only"
            | No_narrow_refs -> "no narrow references"
            | Rejected r -> "rejected: " ^ r));
      List.iter (fun l -> Hashtbl.replace processed l ()) created;
      reports := rep :: !reports;
      iterate ()
  in
  iterate ();
  List.rev !reports

let pp_status ppf = function
  | Coalesced -> Format.pp_print_string ppf "coalesced"
  | Unrolled_only -> Format.pp_print_string ppf "unrolled-only"
  | No_narrow_refs -> Format.pp_print_string ppf "no-narrow-refs"
  | Rejected r -> Format.fprintf ppf "rejected (%s)" r

let pp_report ppf r =
  Format.fprintf ppf
    "loop %s: %a factor=%d load-groups=%d store-groups=%d checks=%d \
     guards=%d+%d-elided"
    r.header pp_status r.status r.factor r.load_groups r.store_groups
    r.check_insts r.guards_emitted r.guards_elided;
  Option.iter
    (fun d -> Format.fprintf ppf " [%a]" Profitability.pp_decision d)
    r.decision
