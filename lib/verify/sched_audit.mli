(** Independent audit of committed modulo schedules (Rtlcheck layer 2
    for the [-Osched] pass).

    For every loop the software pipeliner reports as [Pipelined] or
    [Reordered], this module re-verifies the recorded schedule
    certificate against a dependence graph rebuilt from the recorded
    original body — it trusts none of the solver's conclusions:

    - every intra-iteration and distance-1 cross-iteration edge must
      satisfy [t(dst) >= t(src) + lat - dist*II];
    - the single-issue resource table must be exclusive modulo II;
    - operations defining registers the back branch reads must sit in
      stage 0 (otherwise the kernel's once-per-block exit test reads a
      stale induction value); other loop-carried registers may float,
      ordered by the distance-1 cross edges;
    - the achieved II must respect the recomputed resource bound and be
      no worse than {!Mac_opt.Sched.block_cycles} of the body;
    - the independently re-derived loop-carried register set must match
      the recorded one;
    - the kernel found in the {e output} RTL under the recorded label
      must be exactly [stages] copies of the original body (one for an
      in-place reorder), instruction for instruction once register names
      are erased — i.e. a dependence-respecting reschedule, not a
      rewrite. *)

val regions :
  (Mac_opt.Pipeline_sched.report * Mac_opt.Pipeline_sched.cert option) list ->
  (Mac_rtl.Rtl.label * string) list
(** The software-pipelined loops, as {!Tvalid.validate} regions: the
    header of every [Pipelined] report, whose certificate {!run}
    re-verifies. *)

val run :
  Mac_rtl.Func.t ->
  machine:Mac_machine.Machine.t ->
  sched_reports:
    (Mac_opt.Pipeline_sched.report * Mac_opt.Pipeline_sched.cert option) list ->
  Diagnostic.t list
(** Audit every committed schedule of the function; rejected loops and
    missing certificates produce no diagnostics. *)
