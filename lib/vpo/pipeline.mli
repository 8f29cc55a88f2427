(** The optimizing back end: pass ordering and optimization levels.

    Levels mirror the paper's evaluation columns:
    - [O0]: lowering + legalization only.
    - [O1]: + the classic improvements (constant folding, copy/constant
      propagation, local CSE with redundant-load elimination, dead-code
      elimination), iterated to a fixed point.
    - [O2]: + loop unrolling by the coalescing widening factor {e without}
      coalescing — the paper's baseline ("the loops were unrolled so that
      the effect of memory access coalescing could be isolated").
    - [O3]: + coalescing of loads (Table II/III column 4).
    - [O4]: + coalescing of loads and stores (column 5).

    Pass order is: classic opts, unroll+coalesce, classic cleanup,
    machine legalization, final cleanup. Coalescing runs before
    legalization (DESIGN.md decision 1). *)

open Mac_rtl

type level = O0 | O1 | O2 | O3 | O4

val level_of_string : string -> level option
val level_to_string : level -> string

(** How much of {!Mac_verify} runs between passes: [Vnone] only the cheap
    {!Mac_rtl.Func.validate}; [Vir] the full Rtlcheck well-formedness
    suite after every pass; [Vfull] additionally per-pass translation
    validation ({!Mac_verify.Tvalid} — symbolic block-by-block
    equivalence after every structure-preserving pass, region cut-points
    over the loop restructurers) plus the independent coalescing safety
    audit ({!Mac_verify.Audit}) right after the coalesce pass and the
    schedule audit after software pipelining. *)
type verify_level = Vnone | Vir | Vfull

val verify_level_of_string : string -> verify_level option
(** Accepts ["none"]/["off"], ["ir"], ["full"]. *)

val verify_level_to_string : verify_level -> string

type config = {
  machine : Mac_machine.Machine.t;
  level : level;
  coalesce : Mac_core.Coalesce.options;
      (** consulted at [O2]+ (with [unroll_only]/load/store flags forced
          per level); expose ablation switches here *)
  legalize_first : bool;
      (** ablation of DESIGN.md decision 1: expand narrow references for
          the machine {e before} coalescing, which hides them from the
          coalescer (expected: no coalescing happens) *)
  strength_reduce : bool;
      (** run {!Mac_opt.Strength} (the paper's
          [EliminateInductionVariables]) before coalescing: address
          computations become derived induction pointers and dead loop
          counters are removed *)
  regalloc : int option;
      (** when [Some k], finish with linear-scan register allocation onto
          [k] machine registers (spills go to a simulator-backed stack
          frame); [None] leaves virtual registers, which the simulator
          also executes directly *)
  schedule : bool;
      (** apply {!Mac_opt.Sched.reorder} per block after legalization
          (latency-aware list scheduling as a code-motion pass, not just
          the profitability estimator) *)
  pipeline_sched : bool;
      (** the [-Osched] pass: after legalization (and after the list
          scheduler, whose block reordering must not disturb committed
          kernels), modulo-schedule every simple loop with
          {!Mac_opt.Pipeline_sched} and commit any multi-stage schedule
          as a software-pipelined kernel behind a run-time dispatch. The
          pass declares an empty [preserves] set, is Rtlcheck-validated
          like every other pass, and at [Vfull] its certificates are
          re-verified by the independent {!Mac_verify.Sched_audit}. The
          register-pressure ceiling is fed from [regalloc]'s machine
          register count when allocation is on. *)
  verify : verify_level;
      (** run Rtlcheck (and at [Vfull] the coalescing audit) after every
          pass; the first error-severity diagnostic raises
          {!Verification_failed} naming the pass *)
  facts : (string * Mac_core.Disambig.facts) list;
      (** static disambiguation facts per function name, fed to the
          coalescer's oracle and the audit. {!compile_source} merges in
          facts declared as parameter attributes in the source itself. *)
}

val config :
  ?level:level ->
  ?coalesce:Mac_core.Coalesce.options ->
  ?legalize_first:bool ->
  ?strength_reduce:bool ->
  ?regalloc:int ->
  ?schedule:bool ->
  ?pipeline_sched:bool ->
  ?verify:verify_level ->
  ?facts:(string * Mac_core.Disambig.facts) list ->
  Mac_machine.Machine.t ->
  config
(** Defaults: [O4], {!Mac_core.Coalesce.default}, coalesce-first, no
    strength reduction, no register allocation, no scheduling pass, no
    software pipelining, no verification, no facts. *)

type compiled = {
  funcs : Func.t list;
  reports : (string * Mac_core.Coalesce.loop_report list) list;
      (** per function name *)
  sched_reports :
    (string * (Mac_opt.Pipeline_sched.report * Mac_opt.Pipeline_sched.cert option) list)
      list;
      (** per function name: one report per simple loop the [-Osched]
          pass considered (empty unless {!config.pipeline_sched}), with
          the schedule certificate for every committed loop — the input
          to {!Mac_verify.Sched_audit} and to [mcc --explain=sched] *)
  diags : (string * Mac_verify.Diagnostic.t list) list;
      (** per function name; warnings and infos the verifier collected
          (empty unless {!config.verify} enables it — errors raise
          {!Verification_failed} instead of ending up here) *)
  ams : (string * Mac_dataflow.Analysis.t) list;
      (** per function name: the analysis manager each function was
          compiled under, still holding whatever facts the final passes
          left valid. Post-compile consumers (the static estimator's
          {!Mac_core.Estimate.via}) memoise through it instead of
          creating a fresh manager. *)
  pass_seconds : (string * float) list;
      (** wall-clock seconds per pass name, accumulated across fixpoint
          rounds and functions, sorted by name. Verification (Rtlcheck +
          audit + validate) is accounted under ["verify"]; MiniC lowering
          (only via {!compile_source}) under ["lower"]. *)
  compile_seconds : float;
      (** total wall-clock seconds for the whole compilation (at least
          the sum of [pass_seconds]; the remainder is pipeline glue) *)
  guards_emitted : int;
      (** run-time guards emitted into dispatch blocks, summed over every
          coalesced loop of every function *)
  guards_elided : int;
      (** guards discharged statically by {!Mac_core.Disambig} *)
  elision_reasons : (string * int) list;
      (** elision count per reason string (e.g. ["align:congruence"],
          ["alias:provenance"]), sorted by reason *)
  tvalid_stats : (string * Mac_verify.Tvalid.agg) list;
      (** per pass name, sorted: translation-validation runs, block pairs
          checked, regions carved out, fallbacks recorded and wall-clock
          seconds, accumulated across functions (empty unless
          {!config.verify} is [Vfull]). The seconds also appear under the
          ["tvalid"] key of [pass_seconds]. *)
}

exception Verification_failed of Mac_verify.Diagnostic.t
(** Raised by compilation when a verification layer reports an
    error-severity diagnostic; the diagnostic names the pass. *)

val compile_funcs : config -> Func.t list -> compiled
(** Optimize already-lowered functions in place. *)

val compile_source : config -> string -> compiled
(** Parse, type-check, lower and optimize MiniC source. *)

val classic_opts : Func.t -> unit
(** The O1 fixed-point combination, exposed for tests. *)

val test_intercept : (string -> Func.t -> unit) option ref
(** Test seam: called with the pass name and the function right after
    each validated pass runs and {e before} the translation validator
    compares input and output — a hook that mutates the function here
    simulates a miscompiling pass. While armed, the validator runs even
    for passes reporting no change. Only consulted at [Vfull]. *)

val test_observe :
  (pass:string -> fname:string -> old_f:Func.t -> new_f:Func.t -> unit)
  option
  ref
(** Test seam: called with each (pass, before, after) snapshot pair the
    validator checks — the qcheck mutation adversary captures real pass
    transitions through this. Only consulted at [Vfull]. *)
