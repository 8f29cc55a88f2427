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
  pass_seconds : (string * float) list;
  compile_seconds : float;
  guards_emitted : int;
  guards_elided : int;
  elision_reasons : (string * int) list;
  tvalid_stats : (string * Tvalid.agg) list;
}

exception Verification_failed of Diagnostic.t

type proof =
  | Exact
  | Composite
  | Regions of (unit -> (Rtl.label * string) list)
  | Renamer

(* Test seams for the translation validator (see the interface). Both
   survive a fork, so a daemon test can arm them before serving. *)
let test_intercept : (string -> Func.t -> unit) option ref = ref None

let test_observe :
    (pass:string -> proof:proof -> fname:string -> old_f:Func.t ->
     new_f:Func.t -> unit) option ref =
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

(* The tvalid row and the warning of one call of the classic rounds *)
let composite = "classic-opts"

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
   last changed something.

   [fixed] holds, for each of the six passes in round order, the body,
   parameters and frame pointer on which it last reported no change. A
   pass is not run while all three are still [==]: it reads nothing else
   but a coherent [am], so it would report no change again. That skips
   a call that starts on the previous call's fixed point, and the passes
   of the confirming round that follow the last change. *)
let classic_rounds ?(record = fun _name run -> run ()) ?fixed am time
    (f : Func.t) =
  let dl = Some [ Analysis.Dom; Analysis.Loops ] in
  (* name, what the runner keeps on a change ([None] for the passes that
     invalidate [am] themselves), run *)
  let round =
    [ ("simplify", Some [], Mac_opt.Simplify.run);
      ("copyprop", None, Mac_opt.Copyprop.run ~am);
      ("cse", dl, Mac_opt.Cse.run);
      ("combine", dl, Mac_opt.Combine.run);
      ("cleanflow", Some [], Mac_opt.Cleanflow.run);
      ("dce", None, Mac_opt.Dce.run ~am) ]
  in
  let pass i (name, preserves, run) =
    let at_fixed_point =
      match Option.bind fixed (fun fp -> fp.(i)) with
      | Some (body, params, fp_reg) ->
        body == f.body && params == f.params && fp_reg == f.fp_reg
      | None -> false
    in
    if at_fixed_point then []
    else begin
      (* [record] wraps the pass run itself (snapshotting before and
         after) but not the cache invalidation; the per-pass timer sits
         inside so recording is never billed to the pass *)
      let changed = record name (fun () -> time name (fun () -> run f)) in
      if changed then
        Option.iter (fun preserves -> Analysis.invalidate am ~preserves)
          preserves
      else
        Option.iter
          (fun fp -> fp.(i) <- Some (f.body, f.params, f.fp_reg))
          fixed;
      if changed then [ name ] else []
    end
  in
  let rec go left =
    match List.concat (List.mapi pass round) with
    | [] -> []
    | _ when left > 1 -> go (left - 1)
    | changed ->
      [ Diagnostic.warningf ~pass:composite ~func:f.name
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

(* One entry of the pass table. The fold in [compile_func] runs [run]
   under the [bucket] timer, invalidates [am] behind a change, validates
   the pass as [proof] says, checkpoints it and, at [Vfull], runs its
   [audit], billed to [verify]. *)
type pass = {
  name : string;  (* the tvalid row, the checkpoint and diagnostics *)
  bucket : string option;
      (* the [pass_seconds] key of [run]; [None] when [run] bills its own
         parts (the classic rounds, strength reduction) or runs nothing *)
  run : unit -> bool;  (* [true] if the function may have changed *)
  preserves : Analysis.fact list option;
      (* what the runner keeps of [am] after a change; [None] for a pass
         that invalidates [am] itself *)
  machine : bool;  (* the checkpoint checks widths against the machine *)
  audit : (unit -> Diagnostic.t list) option;
  proof : proof;
}

let compile_func cfg timings tvalid_tbl (f : Func.t) =
  let time name thunk = timed timings name thunk in
  let am = Analysis.create f in
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
  let full = cfg.verify = Vfull in
  let tv_agg name =
    match Hashtbl.find_opt tvalid_tbl name with
    | Some a -> a
    | None ->
      let a = Tvalid.agg_zero () in
      Hashtbl.add tvalid_tbl name a;
      a
  in
  (* Validate [old_f -> new_f] for [name], accounted under its row. *)
  let tv_run ?regions name ~old_f ~new_f =
    let t0 = now () in
    let res =
      Tvalid.validate ~machine:cfg.machine ~facts ~pass:name ?regions ~old_f
        ~new_f ()
    in
    let dt = now () -. t0 in
    add_time timings "tvalid" dt;
    let agg = tv_agg name in
    agg.runs <- agg.runs + 1;
    agg.seconds <- agg.seconds +. dt;
    Result.iter
      (fun (r : Tvalid.result) ->
        agg.blocks <- agg.blocks + r.blocks_checked;
        agg.skipped <- agg.skipped + r.blocks_skipped;
        agg.regions <- agg.regions + r.regions_skipped)
      res;
    res
  in
  (* a mismatch fails the compilation like any other Vfull diagnostic *)
  let accept res =
    fail_on_errors
      (match res with Ok (r : Tvalid.result) -> r.warnings | Error d -> [ d ])
  in
  let intercept name =
    match !test_intercept with Some h -> h name f | None -> ()
  in
  let observe name proof ~old_f ~new_f =
    match !test_observe with
    | Some h -> h ~pass:name ~proof ~fname:f.name ~old_f ~new_f
    | None -> ()
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
  let fixed = Array.make 6 None in
  let classic () =
    (* an armed intercept may mutate the function behind a pass's back,
       so every pass runs *)
    let fixed = if !test_intercept = None then Some fixed else None in
    if not full then diags := !diags @ classic_rounds ?fixed am time f
    else begin
      let old_f = Tvalid.snapshot f in
      let steps = ref [] in
      let record name run =
        let before = Tvalid.snapshot f in
        let changed = run () in
        intercept name;
        if changed || !test_intercept <> None then begin
          let after = Tvalid.snapshot f in
          observe name Exact ~old_f:before ~new_f:after;
          steps := (name, before, after) :: !steps
        end;
        changed
      in
      diags := !diags @ classic_rounds ~record ?fixed am time f;
      if !steps <> [] then begin
        observe composite Composite ~old_f ~new_f:f;
        match tv_run composite ~old_f ~new_f:f with
        | Ok _ as res -> accept res
        | Error _ ->
          let agg = tv_agg composite in
          agg.replays <- agg.replays + 1;
          List.iter
            (fun (name, old_f, new_f) -> accept (tv_run name ~old_f ~new_f))
            (List.rev !steps)
      end
    end
  in
  (* Every pass must leave a function Rtlcheck's structural layer
     accepts; with [verify <> Vnone] it must also satisfy the rest of the
     independent Rtlcheck invariants. The pipeline stops at the first
     error-severity diagnostic, named after the offending pass and
     function. Rtlcheck is handed the analysis manager so it (a) audits
     the cache's coherence — catching a pass that lied about what it
     preserves — and (b) reuses the cached CFG/reaching/liveness facts.

     A pass that changed nothing leaves the body [==] to the one the
     previous checkpoint checked, and Rtlcheck reads nothing else but
     the parameters, the frame pointer and [?machine], so that
     checkpoint's diagnostics stand, re-tagged with the new pass. Only
     the width scan reads [?machine] ([Vnone] runs none): when the
     machine is all that is new, the scan runs alone, and a width it
     rejects sends the checkpoint on to the full check. The coherence
     audit still runs: a stale cache may sit behind an unchanged body. *)
  let last_check = ref None in
  let checkpoint ?machine name =
    time "verify" (fun () ->
        let machine_ok m =
          match (m, machine) with
          | None, Some machine ->
            Mac_verify.Rtlcheck.width_checks ~machine ~pass:name f = []
          | _ -> Option.equal ( == ) m machine
        in
        let diags =
          match !last_check with
          | Some (body, params, fp, m, ds)
            when body == f.body && params == f.params && fp == f.fp_reg
                 && (cfg.verify = Vnone
                    || (Analysis.coherent am = Ok () && machine_ok m)) ->
            last_check := Some (body, params, fp, machine, ds);
            List.map (fun (d : Diagnostic.t) -> { d with pass = name }) ds
          | _ ->
            let ds =
              if cfg.verify = Vnone then
                Mac_verify.Rtlcheck.structural_checks ~pass:name f
              else
                Mac_verify.Rtlcheck.check_func ?machine ~analysis:am
                  ~pass:name f
            in
            last_check := Some (f.body, f.params, f.fp_reg, machine, ds);
            ds
        in
        fail_on_errors diags)
  in
  (* the fold: one table entry *)
  let step p =
    let old_f =
      match p.proof with
      | Composite -> None (* [classic] validates its rounds itself *)
      | _ -> if full then Some (Tvalid.snapshot f) else None
    in
    let changed =
      match p.bucket with Some b -> time b p.run | None -> p.run ()
    in
    (match p.preserves with
    | Some preserves when changed -> Analysis.invalidate am ~preserves
    | _ -> ());
    (match (old_f, p.proof) with
    | None, _ -> ()
    (* a pass that did nothing is not validated (old = new trivially),
       unless an armed intercept may have mutated the function *)
    | Some _, Exact when not (changed || !test_intercept <> None) -> ()
    | Some old_f, proof -> (
      intercept p.name;
      observe p.name proof ~old_f ~new_f:f;
      match proof with
      | Regions headers ->
        accept (tv_run ~regions:(headers ()) p.name ~old_f ~new_f:f)
      | Renamer ->
        (* recorded, never silently skipped: the checkpoint below is the
           only check the pass gets *)
        let agg = tv_agg p.name in
        agg.runs <- agg.runs + 1;
        agg.fallbacks <- agg.fallbacks + 1;
        agg.fallback_reason <- Some "renaming pass: Rtlcheck only"
      | Exact | Composite -> accept (tv_run p.name ~old_f ~new_f:f)));
    checkpoint ?machine:(if p.machine then Some cfg.machine else None) p.name;
    match p.audit with
    | Some audit when full ->
      time "verify" (fun () -> fail_on_errors (audit ()))
    | _ -> ()
  in
  (* --- the pass table ------------------------------------------------ *)
  let pass ?bucket ?preserves ?(machine = false) ?audit ?(proof = Exact) name
      run =
    let bucket = Option.value bucket ~default:(Some name) in
    { name; bucket; run; preserves; machine; audit; proof }
  in
  let classic_pass ?machine name =
    pass ?machine ~bucket:None ~proof:Composite name (fun () ->
        classic ();
        true)
  in
  (* rewrites of plain instructions in place: the block structure
     survives, the register facts do not *)
  let keeps_loops = [ Analysis.Dom; Analysis.Loops ] in
  let legalize name =
    pass ~bucket:(Some "legalize") ~preserves:keeps_loops ~machine:true name
      (fun () -> Mac_opt.Legalize.run f cfg.machine)
  in
  let reports = ref [] and sched_reports = ref [] in
  let opts = coalesce_options cfg and leveled = cfg.level <> O0 in
  let only c p = if c then [ p ] else [] in
  let passes =
    List.concat
      [ only leveled (classic_pass composite);
        (* The paper's EliminateInductionVariables: address computations
           become derived induction pointers (Fig. 1b shape); the second
           round, after the dead index arithmetic has been cleaned away,
           can retire the loop counter by rewriting the back branch to a
           pointer compare. It renames wholesale. *)
        only (cfg.strength_reduce && leveled)
          (pass ~bucket:None ~proof:Renamer "strength-reduce" (fun () ->
               for _ = 1 to 2 do
                 ignore
                   (time "strength" (fun () -> Mac_opt.Strength.run ~am f));
                 classic ()
               done;
               true));
        (* DESIGN.md decision 1 ablation: legalizing narrow references
           before coalescing hides them from the coalescer entirely. *)
        only cfg.legalize_first (legalize "legalize-first");
        (* Nothing coalesces at O0 and O1, and nothing is billed, but the
           pass is validated and audited all the same. The audit sees the
           coalesced loops before legalization and cleanup rewrite them,
           with the facts the coalescer consulted. *)
        [ pass "coalesce"
            ~bucket:(Option.map (fun _ -> "coalesce") opts)
            ~audit:(fun () ->
              Mac_verify.Audit.run ~analysis:am ~facts f ~machine:cfg.machine
                ~reports:!reports)
            ~proof:(Regions (fun () -> Mac_verify.Audit.regions !reports))
            (fun () ->
              Option.iter
                (fun o ->
                  reports := Coalesce.run ~am ~facts f ~machine:cfg.machine o)
                opts;
              true) ];
        only leveled (classic_pass "cleanup");
        [ legalize "legalize" ];
        only leveled (classic_pass ~machine:true "final-cleanup");
        (* list scheduling of every block, post-legalization *)
        only (cfg.schedule && leveled)
          (pass ~preserves:keeps_loops ~machine:true "schedule" (fun () ->
               Array.to_list (Analysis.cfg am).blocks
               |> List.concat_map (fun (b : Mac_cfg.Cfg.block) ->
                      Mac_opt.Sched.reorder cfg.machine b.insts)
               |> Func.set_body f;
               true));
        (* The -Osched pass modulo-schedules every simple loop after
           legalization (the machine shapes are final) and after the list
           scheduler (nothing may reorder its kernels); nothing of [am]
           survives. *)
        only (cfg.pipeline_sched && leveled)
          (pass ~preserves:[] ~machine:true "pipeline-sched"
             ~audit:(fun () ->
               Mac_verify.Sched_audit.run f ~machine:cfg.machine
                 ~sched_reports:!sched_reports)
             ~proof:
               (Regions
                  (fun () -> Mac_verify.Sched_audit.regions !sched_reports))
             (fun () ->
               let changed, rs =
                 Mac_opt.Pipeline_sched.run ~am ?max_regs:cfg.regalloc f
                   ~machine:cfg.machine
               in
               sched_reports := rs;
               changed));
        (* whole-function renaming onto machine registers *)
        (match cfg.regalloc with
        | Some num_regs ->
          [ pass ~machine:true ~proof:Renamer "regalloc" (fun () ->
                ignore
                  (Mac_opt.Regalloc.run ~am f ~machine:cfg.machine ~num_regs);
                true) ]
        | None -> []) ]
  in
  checkpoint "input";
  List.iter step passes;
  (!reports, !sched_reports, !diags)

(* a table's bindings, sorted by key *)
let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let compile_funcs cfg funcs =
  let t0 = now () in
  let timings : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let tvalid_tbl : (string, Tvalid.agg) Hashtbl.t = Hashtbl.create 16 in
  (* Functions are compiled independently — uid allocation and the
     analysis manager are per-Func — so they fan out
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
        (f.Func.name, compile_func cfg tm tv f, tm, tv))
      funcs
  in
  List.iter
    (fun (_, _, tm, tv) ->
      Hashtbl.iter (fun name dt -> add_time timings name dt) tm;
      Hashtbl.iter
        (fun name a ->
          Hashtbl.replace tvalid_tbl name
            (match Hashtbl.find_opt tvalid_tbl name with
            | Some g -> Tvalid.agg_add g a
            | None -> a))
        tv)
    per_func;
  let per_func get = List.map (fun (n, r, _, _) -> (n, get r)) per_func in
  let reports = per_func (fun (r, _, _) -> r) in
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
    sorted tbl
  in
  {
    funcs;
    reports;
    sched_reports = per_func (fun (_, sr, _) -> sr);
    diags = per_func (fun (_, _, d) -> d);
    pass_seconds = sorted timings;
    compile_seconds = now () -. t0;
    guards_emitted = sum (fun r -> r.Coalesce.guards_emitted);
    guards_elided = sum (fun r -> r.Coalesce.guards_elided);
    elision_reasons;
    tvalid_stats = sorted tvalid_tbl;
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
