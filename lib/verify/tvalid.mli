(** Per-pass translation validation.

    After a pass runs, {!validate} proves the output function equivalent
    to a snapshot of the input by pairing their CFGs from the entry and
    comparing, per paired region, the normalized symbolic terms
    ({!Symexec}) of every register live into the next region, the final
    memory, the call-event sequence and the return value.

    Both sides are executed from the {e same} entry environment, seeded
    with equalities that provably hold at the old block's entry (an
    available-expression analysis plus {!Mac_dataflow.Congruence}), so
    cross-block rewrites — CSE reusing a value over an extended basic
    block, copy propagation through a join — do not read as mismatches.

    Scalar passes are matched exactly; the pipeline validates each call
    of the classic rounds as one such pass, [classic-opts], from before
    the rounds to their fixed point, and replays its recorded steps pass
    by pass only to blame a rejection. The two loop-restructuring passes
    ([coalesce], [pipeline-sched]) are matched with region cut-points:
    each transformed loop (named by its report) is carved out and
    justified by its own certificate audit, and matching resumes at the
    loop's continuation, anchored by instruction uids. Passes that
    rename wholesale ([strength-reduce], [regalloc]) fall back to
    Rtlcheck alone and are recorded as such, never silently skipped.

    Each validation builds what it needs — both sides' CFG views, their
    analyses on demand, one hash-consing arena — and keeps nothing once
    it returns. *)

open Mac_rtl

type pass_class = Exact | Region | Fallback

val classify : string -> pass_class

type result = {
  blocks_checked : int;  (** block pairs proved equivalent by execution *)
  blocks_skipped : int;
      (** block pairs discharged by the incremental skip ladder: equal
          generic transfers (same exit, events, memory, and terms for
          every new-side live-out register) are substitutable under any
          entry environment, so symbolic re-execution is skipped and
          only the successor pairs are enqueued *)
  regions_skipped : int;  (** loop regions justified by certificates *)
  fallback : string option;  (** whole-pass fallback reason, if any *)
  warnings : Diagnostic.t list;
}

val snapshot : Func.t -> Func.t
(** A shallow copy of the function as a pass input (passes mutate in
    place; bodies and instructions themselves are immutable). *)

val validate :
  machine:Mac_machine.Machine.t ->
  facts:Mac_core.Disambig.facts ->
  pass:string ->
  ?reports:Mac_core.Coalesce.loop_report list ->
  ?sched_reports:
    (Mac_opt.Pipeline_sched.report * Mac_opt.Pipeline_sched.cert option)
    list ->
  old_f:Func.t ->
  new_f:Func.t ->
  unit ->
  (result, Diagnostic.t) Stdlib.result
(** [old_f] is the {!snapshot} taken before the pass, [new_f] the
    function it produced. [reports]/[sched_reports] name the loops the
    region passes transformed. An [Error] diagnostic carries the pass,
    the function and a minimized mismatching term pair. *)

(** {1 Aggregated per-pass accounting (for [Pipeline.compiled])} *)

type agg = {
  mutable runs : int;  (** validations performed *)
  mutable blocks : int;  (** pairs proved by symbolic execution *)
  mutable skipped : int;  (** pairs discharged by the skip ladder *)
  mutable regions : int;
  mutable fallbacks : int;
  mutable fallback_reason : string option;
  mutable replays : int;
      (** composites the validator rejected and replayed pass by pass
          to blame a step; in a compile that was accepted, every
          replayed step was *)
  mutable seconds : float;
}

val agg_zero : unit -> agg

val agg_add : agg -> agg -> agg
(** A fresh sum of two aggregates, field by field. The fallback reason
    is the first one seen: [a]'s when it has one, else [b]'s. *)
