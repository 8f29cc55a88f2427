open Mac_rtl
module Machine = Mac_machine.Machine
module Coalesce = Mac_core.Coalesce
module Disambig = Mac_core.Disambig
module Linform = Mac_opt.Linform
module Diagnostic = Mac_verify.Diagnostic
module Analysis = Mac_dataflow.Analysis
module Tvalid = Mac_verify.Tvalid

type level = O0 | O1 | O2 | O3 | O4

let level_of_string = function
  | "O0" | "o0" | "0" -> Some O0
  | "O1" | "o1" | "1" -> Some O1
  | "O2" | "o2" | "2" -> Some O2
  | "O3" | "o3" | "3" -> Some O3
  | "O4" | "o4" | "4" -> Some O4
  | _ -> None

let level_to_string = function
  | O0 -> "O0"
  | O1 -> "O1"
  | O2 -> "O2"
  | O3 -> "O3"
  | O4 -> "O4"

type verify_level = Vnone | Vir | Vfull

let verify_level_of_string = function
  | "none" | "off" -> Some Vnone
  | "ir" -> Some Vir
  | "full" -> Some Vfull
  | _ -> None

let verify_level_to_string = function
  | Vnone -> "none"
  | Vir -> "ir"
  | Vfull -> "full"

type config = {
  machine : Machine.t;
  level : level;
  coalesce : Coalesce.options;
  legalize_first : bool;
  strength_reduce : bool;
  regalloc : int option;
  schedule : bool;
  pipeline_sched : bool;  (* the -Osched pass: modulo-schedule loops *)
  verify : verify_level;
  facts : (string * Disambig.facts) list;
}

let config ?(level = O4) ?(coalesce = Coalesce.default)
    ?(legalize_first = false) ?(strength_reduce = false) ?regalloc
    ?(schedule = false) ?(pipeline_sched = false) ?(verify = Vnone)
    ?(facts = []) machine =
  { machine; level; coalesce; legalize_first; strength_reduce; regalloc;
    schedule; pipeline_sched; verify; facts }

type compiled = {
  funcs : Func.t list;
  reports : (string * Coalesce.loop_report list) list;
  sched_reports :
    (string
    * (Mac_opt.Pipeline_sched.report * Mac_opt.Pipeline_sched.cert option)
      list)
    list;
  diags : (string * Diagnostic.t list) list;
  ams : (string * Mac_dataflow.Analysis.t) list;
  pass_seconds : (string * float) list;
  compile_seconds : float;
  guards_emitted : int;
  guards_elided : int;
  elision_reasons : (string * int) list;
  tvalid_stats : (string * Tvalid.agg) list;
}

exception Verification_failed of Diagnostic.t

(* Test seams for the translation validator. [test_intercept] mutates the
   function after a pass has run but before the validator, or the
   classic rounds' step recorder, sees it (the mccd mutant-compile test
   injects a miscompile this way); [test_observe] captures (pass, old,
   new) snapshots, classic steps and composites alike, for the qcheck
   mutation adversary.
   Both survive a fork, so a daemon test can arm them before serving. *)
let test_intercept : (string -> Func.t -> unit) option ref = ref None

let test_observe :
    (pass:string -> fname:string -> old_f:Func.t -> new_f:Func.t -> unit)
    option
    ref =
  ref None

(* Per-pass wall-clock accounting on the monotonic clock: one table per
   compilation, keyed by pass name, accumulated across fixpoint rounds
   and functions. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let add_time timings name dt =
  Hashtbl.replace timings name
    (dt +. Option.value (Hashtbl.find_opt timings name) ~default:0.)

let timed timings name thunk =
  let t0 = now () in
  let r = thunk () in
  add_time timings name (now () -. t0);
  r

let classic_budget = 10

(* The O1 fixed-point round. All six passes share [am]: Copyprop and Dce
   read their facts through it and invalidate precisely on mutation; the
   others do not consume cached analyses, so the runner invalidates for
   them with a statically known [preserves] set — Simplify folds branches
   and Cleanflow rewrites labels/jumps (nothing survives), while Cse and
   Combine only remove or rewrite plain instructions (the block structure,
   hence dominators and loops, survives).

   The rounds stop at the first round in which every pass reports no
   change, which is only a fixed point because each pass keeps the
   contract: [true] only if the instruction sequence now differs, and on
   [false] [f.body] is physically untouched. [classic_budget] rounds
   used up with a change still pending is returned as a warning naming the passes that
   last changed something. *)
let classic_rounds ?(record = fun _name run -> run ()) am time (f : Func.t) =
  let dl = [ Analysis.Dom; Analysis.Loops ] in
  let pass name ~preserves run =
    (* [record] wraps the pass run itself (snapshotting before and after)
       but not the cache invalidation; the per-pass timer sits inside so
       recording is never billed to the pass *)
    let changed = record name (fun () -> time name (fun () -> run f)) in
    (* the validator memo is content-addressed, so every honest rewrite
       preserves it; {!Analysis.coherent}'s audit polices the claim *)
    if changed then
      Analysis.invalidate am ~preserves:(Analysis.Tvalid :: preserves);
    changed
  in
  let round () =
    let changed = ref [] in
    let note name c = if c then changed := name :: !changed in
    note "simplify" (pass "simplify" ~preserves:[] Mac_opt.Simplify.run);
    note "copyprop"
      (record "copyprop" (fun () ->
           time "copyprop" (fun () -> Mac_opt.Copyprop.run ~am f)));
    note "cse" (pass "cse" ~preserves:dl Mac_opt.Cse.run);
    note "combine" (pass "combine" ~preserves:dl Mac_opt.Combine.run);
    note "cleanflow" (pass "cleanflow" ~preserves:[] Mac_opt.Cleanflow.run);
    note "dce"
      (record "dce" (fun () -> time "dce" (fun () -> Mac_opt.Dce.run ~am f)));
    List.rev !changed
  in
  let rec go left =
    match round () with
    | [] -> []
    | _ when left > 1 -> go (left - 1)
    | changed ->
      [ Diagnostic.warningf ~pass:"classic-opts" ~func:f.name
          "no fixed point after %d rounds: the last round still changed \
           the function (%s)"
          classic_budget (String.concat ", " changed) ]
  in
  go classic_budget

let classic_opts f =
  let am = Analysis.create f in
  classic_rounds am (fun _name thunk -> thunk ()) f

let coalesce_options cfg =
  match cfg.level with
  | O0 | O1 -> None
  | O2 -> Some { cfg.coalesce with Coalesce.unroll_only = true }
  | O3 ->
    Some
      { cfg.coalesce with Coalesce.unroll_only = false;
        coalesce_loads = true; coalesce_stores = false }
  | O4 ->
    Some
      { cfg.coalesce with Coalesce.unroll_only = false;
        coalesce_loads = true; coalesce_stores = true }

let compile_func cfg timings tvalid_tbl (f : Func.t) =
  let time name thunk = timed timings name thunk in
  let am = Analysis.create f in
  let cache = Mac_core.Profitability.create_cache () in
  let diags = ref [] in
  let fail_on_errors ds =
    diags := !diags @ ds;
    match Diagnostic.errors ds with
    | [] -> ()
    | d :: _ -> raise (Verification_failed d)
  in
  let facts =
    Option.value (List.assoc_opt f.name cfg.facts) ~default:Disambig.empty
  in
  (* --- translation validation (the Vfull backbone) ------------------- *)
  let tvalid_on = cfg.verify = Vfull in
  let tv_agg name =
    match Hashtbl.find_opt tvalid_tbl name with
    | Some a -> a
    | None ->
      let a = Tvalid.agg_zero () in
      Hashtbl.add tvalid_tbl name a;
      a
  in
  let tv_record name res dt =
    let agg = tv_agg name in
    agg.Tvalid.runs <- agg.Tvalid.runs + 1;
    agg.Tvalid.seconds <- agg.Tvalid.seconds +. dt;
    match res with
    | Ok (r : Tvalid.result) ->
      agg.Tvalid.blocks <- agg.Tvalid.blocks + r.Tvalid.blocks_checked;
      agg.Tvalid.skipped <- agg.Tvalid.skipped + r.Tvalid.blocks_skipped;
      agg.Tvalid.regions <- agg.Tvalid.regions + r.Tvalid.regions_skipped;
      (match r.Tvalid.fallback with
      | Some reason ->
        agg.Tvalid.fallbacks <- agg.Tvalid.fallbacks + 1;
        agg.Tvalid.fallback_reason <- Some reason
      | None -> ())
    | Error _ -> ()
  in
  (* Validate [old_f -> new_f] for [name]: block-by-block symbolic
     equivalence for structure-preserving passes, region cut-points for
     the loop restructurers, a recorded fallback for the renamers. *)
  let tv_run ?reports ?sched_reports name ~old_f ~new_f =
    let t0 = now () in
    let res =
      (* the cross-pass memo rides in the analysis manager's [Tvalid]
         slot: passes that preserve it keep block skipping warm, a pass
         that drops it only costs a cold revalidation, and its self-audit
         runs with every checkpoint's coherence probe *)
      Tvalid.validate ~cache:(Tvalid.cache_of_analysis am)
        ~machine:cfg.machine ~facts ~pass:name ?reports ?sched_reports
        ~old_f ~new_f ()
    in
    let dt = now () -. t0 in
    add_time timings "tvalid" dt;
    tv_record name res dt;
    res
  in
  (* An error-severity mismatch fails the compilation like any other
     Vfull diagnostic. *)
  let accept = function
    | Ok (r : Tvalid.result) -> diags := !diags @ r.Tvalid.warnings
    | Error d ->
      diags := !diags @ [ d ];
      raise (Verification_failed d)
  in
  let intercept name =
    match !test_intercept with Some h -> h name f | None -> ()
  in
  let observe name ~old_f ~new_f =
    match !test_observe with
    | Some h -> h ~pass:name ~fname:f.name ~old_f ~new_f
    | None -> ()
  in
  let tv_check ?reports ?sched_reports name old_f =
    intercept name;
    observe name ~old_f ~new_f:f;
    accept (tv_run ?reports ?sched_reports name ~old_f ~new_f:f)
  in
  (* wrapper for passes reporting a changed flag: skip the validator when
     the pass did nothing (old = new trivially), unless a test intercept
     is armed and may have mutated the function behind the pass's back *)
  let tv name run =
    if not tvalid_on then run ()
    else begin
      let old_f = Tvalid.snapshot f in
      let changed = run () in
      if changed || !test_intercept <> None then tv_check name old_f;
      changed
    end
  in
  (* The classic rounds are validated as one composite, from a snapshot
     taken before the rounds to their fixed point: one validator run per
     call instead of one per changing pass. The recorder keeps a
     (pass, before, after) step for every pass that changed something
     (instructions are immutable, so a snapshot is one record copy);
     only a rejected composite replays the steps through the per-pass
     validator, to blame the first one that fails. If every step is
     accepted, their chain of proofs stands for the composite and the
     compile is accepted; [replays] counts these cases. *)
  let classic () =
    if not tvalid_on then diags := !diags @ classic_rounds am time f
    else begin
      let old_f = Tvalid.snapshot f in
      let steps = ref [] in
      let record name run =
        let before = Tvalid.snapshot f in
        let changed = run () in
        intercept name;
        if changed || !test_intercept <> None then begin
          let after = Tvalid.snapshot f in
          observe name ~old_f:before ~new_f:after;
          steps := (name, before, after) :: !steps
        end;
        changed
      in
      diags := !diags @ classic_rounds ~record am time f;
      if !steps <> [] then begin
        observe "classic-opts" ~old_f ~new_f:f;
        match tv_run "classic-opts" ~old_f ~new_f:f with
        | Ok _ as res -> accept res
        | Error _ ->
          let agg = tv_agg "classic-opts" in
          agg.Tvalid.replays <- agg.Tvalid.replays + 1;
          List.iter
            (fun (name, old_f, new_f) -> accept (tv_run name ~old_f ~new_f))
            (List.rev !steps)
      end
    end
  in
  (* Every pass must leave a function {!Func.validate} accepts; with
     [verify <> Vnone] it must also satisfy the independent Rtlcheck
     invariants, and the pipeline stops at the first error-severity
     diagnostic, named after the offending pass. Rtlcheck is handed the
     analysis manager so it (a) audits the cache's coherence — catching a
     pass that lied about what it preserves — and (b) reuses the cached
     CFG/reaching/liveness facts instead of recomputing them. *)
  let checkpoint ?machine name =
    time "verify" (fun () ->
        (match Func.validate f with
        | Ok () -> ()
        | Error msg ->
          Fmt.failwith "pass %s produced an invalid function %s: %s" name
            f.name msg);
        if cfg.verify <> Vnone then
          fail_on_errors
            (Mac_verify.Rtlcheck.check_func ?machine ~analysis:am ~pass:name
               f))
  in
  checkpoint "input";
  if cfg.level <> O0 then begin
    classic ();
    checkpoint "classic-opts"
  end;
  if cfg.strength_reduce && cfg.level <> O0 then begin
    (* The paper's EliminateInductionVariables: address computations become
       derived induction pointers (Fig. 1b shape); the second round — after
       the dead index arithmetic has been cleaned away — can retire the
       loop counter by rewriting the back branch to a pointer compare. *)
    ignore (time "strength" (fun () -> Mac_opt.Strength.run ~am f));
    classic ();
    ignore (time "strength" (fun () -> Mac_opt.Strength.run ~am f));
    classic ();
    checkpoint "strength-reduce";
    (* induction-variable rewriting renames wholesale; the validator
       records the fallback (Rtlcheck + the congruence solver's own
       consistency are the safety net here) *)
    if tvalid_on then tv_check "strength-reduce" f
  end;
  (* DESIGN.md decision 1 ablation: legalizing narrow references before
     coalescing hides them from the coalescer entirely. *)
  if cfg.legalize_first then begin
    ignore
      (tv "legalize-first" (fun () ->
           time "legalize" (fun () ->
               let changed = Mac_opt.Legalize.run f cfg.machine in
               (* 1:1-or-expanding rewrite of plain instructions: the block
                  structure survives, the register facts do not. *)
               Analysis.invalidate am
                 ~preserves:
                   [ Analysis.Dom; Analysis.Loops; Analysis.Tvalid ];
               changed)));
    checkpoint ~machine:cfg.machine "legalize-first"
  end;
  let tv_old = if tvalid_on then Some (Tvalid.snapshot f) else None in
  let reports =
    match coalesce_options cfg with
    | Some opts ->
      time "coalesce" (fun () ->
          Coalesce.run ~am ~cache ~facts f ~machine:cfg.machine opts)
    | None -> []
  in
  (* transformed loops are carved out as regions justified by the audit
     below; everything around them (and every untouched loop) is matched
     exactly *)
  (match tv_old with
  | Some old_f -> tv_check ~reports "coalesce" old_f
  | None -> ());
  checkpoint "coalesce";
  (* The independent safety audit must see the coalesced loops before
     legalization rewrites narrow references into wide shapes of its own
     and before cleanup canonicalizes the dispatch code. It gets the same
     facts the coalescer consulted: every elision certificate in the
     reports must re-verify or the compilation fails. *)
  if cfg.verify = Vfull then
    time "verify" (fun () ->
        fail_on_errors
          (Mac_verify.Audit.run ~analysis:am ~facts f ~machine:cfg.machine
             ~reports));
  if cfg.level <> O0 then begin
    classic ();
    checkpoint "cleanup"
  end;
  ignore
    (tv "legalize" (fun () ->
         time "legalize" (fun () ->
             let changed = Mac_opt.Legalize.run f cfg.machine in
             Analysis.invalidate am
               ~preserves:[ Analysis.Dom; Analysis.Loops; Analysis.Tvalid ];
             changed)));
  checkpoint ~machine:cfg.machine "legalize";
  if cfg.level <> O0 then begin
    classic ();
    checkpoint ~machine:cfg.machine "final-cleanup"
  end;
  if cfg.schedule && cfg.level <> O0 then begin
    (* machine-level list scheduling of every block, post-legalization *)
    ignore
      (tv "schedule" (fun () ->
           time "schedule" (fun () ->
               let cfgv = Analysis.cfg am in
               let body' =
                 Array.to_list cfgv.blocks
                 |> List.concat_map (fun (b : Mac_cfg.Cfg.block) ->
                        Mac_opt.Sched.reorder cfg.machine b.insts)
               in
               Func.set_body f body';
               (* In-block reordering of plain instructions only. *)
               Analysis.invalidate am
                 ~preserves:
                   [ Analysis.Dom; Analysis.Loops; Analysis.Tvalid ];
               true)));
    checkpoint ~machine:cfg.machine "schedule"
  end;
  let sched_reports =
    if cfg.pipeline_sched && cfg.level <> O0 then begin
      (* the -Osched pass: modulo-schedule every simple loop, after
         legalization (the machine shapes being scheduled are final) and
         after the per-block list scheduler (the pipeliner rebuilds its
         loop bodies from scratch; nothing may reorder its kernels) *)
      let tv_old = if tvalid_on then Some (Tvalid.snapshot f) else None in
      let changed, rs =
        time "pipeline-sched" (fun () ->
            Mac_opt.Pipeline_sched.run ~am ?max_regs:cfg.regalloc f
              ~machine:cfg.machine)
      in
      (* loop-restructuring transformation: nothing survives except the
         content-addressed validator memo *)
      if changed then Analysis.invalidate am ~preserves:[ Analysis.Tvalid ];
      (* pipelined kernels are regions justified by the schedule audit;
         in-place reorders and untouched loops are matched exactly *)
      (match tv_old with
      | Some old_f -> tv_check ~sched_reports:rs "pipeline-sched" old_f
      | None -> ());
      checkpoint ~machine:cfg.machine "pipeline-sched";
      (* the independent schedule audit re-verifies every certificate
         against a freshly rebuilt dependence graph *)
      if cfg.verify = Vfull then
        time "verify" (fun () ->
            fail_on_errors
              (Mac_verify.Sched_audit.run f ~machine:cfg.machine
                 ~sched_reports:rs));
      rs
    end
    else []
  in
  (match cfg.regalloc with
  | Some num_regs ->
    ignore
      (time "regalloc" (fun () ->
           Mac_opt.Regalloc.run ~am f ~machine:cfg.machine ~num_regs));
    checkpoint ~machine:cfg.machine "regalloc";
    (* whole-function renaming onto machine registers: recorded fallback *)
    if tvalid_on then tv_check "regalloc" f
  | None -> ());
  (reports, sched_reports, !diags, am)

let pass_seconds_of timings =
  Hashtbl.fold (fun name dt acc -> (name, dt) :: acc) timings []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let compile_funcs cfg funcs =
  let t0 = now () in
  let timings : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let tvalid_tbl : (string, Tvalid.agg) Hashtbl.t = Hashtbl.create 16 in
  (* Functions are compiled independently — uid allocation, the analysis
     manager and the validator cache are all per-Func — so they fan out
     over domains ({!Mac_parallel.Pool} caps the worker count at the
     item count, so single-function sources stay on the calling domain,
     and a compile on a pool-owned domain — an mccd worker, a sweep
     cell — stays there too).
     Each function accumulates into private timing/validation tables,
     merged afterwards in input order: totals are index-independent
     float/int sums, so the result is identical to a serial run. *)
  let per_func =
    Mac_parallel.Pool.map
      (fun f ->
        let tm : (string, float) Hashtbl.t = Hashtbl.create 16 in
        let tv : (string, Tvalid.agg) Hashtbl.t = Hashtbl.create 16 in
        let r = compile_func cfg tm tv f in
        (f.Func.name, r, tm, tv))
      funcs
  in
  List.iter
    (fun (_, _, tm, tv) ->
      Hashtbl.iter (fun name dt -> add_time timings name dt) tm;
      Hashtbl.iter
        (fun name (a : Tvalid.agg) ->
          let g =
            match Hashtbl.find_opt tvalid_tbl name with
            | Some g -> g
            | None ->
              let g = Tvalid.agg_zero () in
              Hashtbl.add tvalid_tbl name g;
              g
          in
          let open Tvalid in
          g.runs <- g.runs + a.runs;
          g.replays <- g.replays + a.replays;
          g.blocks <- g.blocks + a.blocks;
          g.skipped <- g.skipped + a.skipped;
          g.regions <- g.regions + a.regions;
          g.fallbacks <- g.fallbacks + a.fallbacks;
          (match a.fallback_reason with
          | Some r -> g.fallback_reason <- Some r
          | None -> ());
          g.seconds <- g.seconds +. a.seconds)
        tv)
    per_func;
  let per_func = List.map (fun (n, r, _, _) -> (n, r)) per_func in
  let reports = List.map (fun (n, (r, _, _, _)) -> (n, r)) per_func in
  let all_reports = List.concat_map snd reports in
  let sum field =
    List.fold_left (fun acc r -> acc + field r) 0 all_reports
  in
  let elision_reasons =
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (r : Coalesce.loop_report) ->
        List.iter
          (fun (e : Disambig.elision) ->
            Hashtbl.replace tbl e.Disambig.reason
              (1 + Option.value (Hashtbl.find_opt tbl e.Disambig.reason)
                     ~default:0))
          r.Coalesce.elisions)
      all_reports;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    funcs;
    reports;
    sched_reports = List.map (fun (n, (_, sr, _, _)) -> (n, sr)) per_func;
    diags = List.map (fun (n, (_, _, d, _)) -> (n, d)) per_func;
    ams = List.map (fun (n, (_, _, _, am)) -> (n, am)) per_func;
    pass_seconds = pass_seconds_of timings;
    compile_seconds = now () -. t0;
    guards_emitted = sum (fun r -> r.Coalesce.guards_emitted);
    guards_elided = sum (fun r -> r.Coalesce.guards_elided);
    elision_reasons;
    tvalid_stats =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tvalid_tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

(* Facts declared in the source itself (parameter attributes), converted
   from the lowering's flat vocabulary and merged with any caller-supplied
   facts for the same function. *)
let facts_of_attrs (prog : Mac_minic.Ast.program) =
  let convert pf (acc : Disambig.facts) =
    match pf with
    | Mac_minic.Lower.Falign (r, k) ->
      { acc with Disambig.aligns = (r, k) :: acc.Disambig.aligns }
    | Mac_minic.Lower.Fnonneg r ->
      { acc with Disambig.nonnegs = r :: acc.Disambig.nonnegs }
    | Mac_minic.Lower.Falloc (r, id, { s_const; s_terms }) ->
      let size =
        List.fold_left
          (fun form (r', c) ->
            Linform.add form (Linform.mul_const (Linform.entry r') c))
          (Linform.const s_const) s_terms
      in
      { acc with Disambig.allocs = (r, id, size) :: acc.Disambig.allocs }
  in
  List.filter_map
    (fun (fd : Mac_minic.Ast.func) ->
      let facts =
        List.fold_right convert
          (Mac_minic.Lower.param_facts fd)
          Disambig.empty
      in
      if Disambig.no_facts facts then None else Some (fd.fname, facts))
    prog

let compile_source cfg src =
  let t0 = now () in
  let prog = Mac_minic.Parser.parse src in
  let funcs = Mac_minic.Lower.program prog in
  let lower = now () -. t0 in
  let cfg =
    {
      cfg with
      facts =
        List.fold_left
          (fun acc (n, f) ->
            match List.assoc_opt n acc with
            | Some g -> (n, Disambig.union g f) :: List.remove_assoc n acc
            | None -> (n, f) :: acc)
          cfg.facts (facts_of_attrs prog);
    }
  in
  let c = compile_funcs cfg funcs in
  {
    c with
    pass_seconds =
      (("lower", lower) :: c.pass_seconds)
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    compile_seconds = c.compile_seconds +. lower;
  }
