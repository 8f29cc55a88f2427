(** Independent coalescing safety audit (Rtlcheck layer 2).

    For every loop the coalescer reports as transformed, this module
    re-derives the safety argument of the paper's Fig. 4 and Fig. 5 from
    the {e output} RTL alone — it shares no state with
    {!Mac_core.Coalesce} beyond the loop labels in the report:

    - {b windows}: every [Extract] of a wide loaded value and every
      [Insert] into a wide store buffer must stay inside the wide
      reference's byte window, the window width must be a legal access
      width for the machine, and a wide store's window must be fully
      covered by member inserts (a partially covered window would invent
      byte values);
    - {b footprints}: re-partitioning both the coalesced main loop and the
      untouched safe copy (via {!Mac_core.Partition}) and matching
      partitions by their symbolic base, the main loop must advance
      [factor] times as far per iteration, write {e exactly} the bytes
      [factor] safe iterations write, and read only within the
      word-aligned envelope of what they read;
    - {b ordering}: each member's {e semantic} program point (its
      extract/insert) is compared with its {e effective} one (the wide
      reference): any load/store pair whose semantic and effective orders
      disagree has been reordered by the transformation — within one
      partition that is an error if the byte intervals overlap, across
      partitions it must be covered by a run-time alias guard;
    - {b guards}: the dispatch block is symbolically executed with
      {!Mac_opt.Linform} to attribute each [x & (w-1) <> 0 -> safe]
      alignment guard to the partition window it protects, and the
      required guards (and enough alias-overlap branches) must all be
      present and branch to the safe loop.

    When the coalescer discharged a guard statically, the report carries a
    {!Mac_core.Disambig} certificate instead. The audit re-verifies every
    certificate from the output RTL (its own congruence solve, trip-count
    and extent derivation) and lets only {e verified} certificates stand in
    for the dynamic guards the coverage checks demand; a certificate that
    fails re-verification is an error-severity diagnostic.

    The audit is meant to run right after the coalescing pass, before
    legalization rewrites narrow references into wide-plus-extract shapes
    of its own. *)

val regions :
  Mac_core.Coalesce.loop_report list -> (Mac_rtl.Rtl.label * string) list
(** The loops the coalescer rewrote, as {!Tvalid.validate} regions: the
    header of every report with a main loop. An unrolled-only loop has
    one too, although {!run} audits coalesced loops only. *)

val run :
  ?analysis:Mac_dataflow.Analysis.t ->
  ?facts:Mac_core.Disambig.facts ->
  Mac_rtl.Func.t ->
  machine:Mac_machine.Machine.t ->
  reports:Mac_core.Coalesce.loop_report list ->
  Diagnostic.t list
(** Audit every [Coalesced] loop of the function. Non-coalesced reports
    produce no diagnostics. With [?analysis], the loop bodies are located
    through the manager's cached CFG view instead of rebuilding it per
    report. [?facts] (default {!Mac_core.Disambig.empty}) must be the same
    facts the coalescer was given; certificates cannot verify without
    them. *)
