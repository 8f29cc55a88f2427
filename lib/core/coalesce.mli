(** The memory-access-coalescing driver (paper Fig. 2,
    [CoalesceMemoryAccesses]).

    For every simple innermost loop of the function: find the narrow memory
    references, unroll by the widening factor (keeping the original loop as
    the run-time fallback), partition the unrolled body's references,
    select wide windows, run the hazard analysis, emit run-time alignment
    and alias checks into the dispatch block, and commit the coalesced body
    if the profitability analysis approves it. *)

open Mac_rtl

type options = {
  coalesce_loads : bool;
  coalesce_stores : bool;
  unroll_only : bool;  (** stop after unrolling (the paper's baseline) *)
  runtime_checks : bool;
      (** when false, only statically provable groups are kept — the
          static-only ablation (DESIGN.md decision 3) *)
  respect_profitability : bool;
      (** when true (default), the Fig. 3 gate keeps the cheapest scheduled
          variant (none / loads / loads+stores); when false, apply
          everything the flags ask for regardless of cost — how the
          paper's measured columns behave (the 68030 numbers measure
          slower code, so the transformation was applied there) *)
  profit_mode : Profitability.mode;
  icache_guard : bool;  (** when false, unroll regardless of I-cache fit *)
  remainder_loop : bool;
      (** use the Fig. 5 remainder prologue instead of the divisibility
          bail-out: non-divisible trip counts keep the unrolled/coalesced
          main loop (default false — the paper's emitted code bails) *)
  force_guards : bool;
      (** when true, never consult the static disambiguation oracle: every
          guard is emitted even when provable (the [--force-guards]
          baseline the elision property tests compare against) *)
}

val default : options
(** Loads and stores, run-time checks, schedule-based profitability,
    I-cache guard, factor capped at 8. *)

type status =
  | Coalesced
  | Unrolled_only
  | No_narrow_refs
  | Rejected of string

type loop_report = {
  header : Rtl.label;  (** original header label of the loop *)
  factor : int;
  status : status;
  main_label : Rtl.label option;
      (** header of the unrolled (and possibly coalesced) main loop; [None]
          when the loop was not unrolled. Exposed so an independent auditor
          ({!Mac_verify.Audit}) can re-find the transformed loop. *)
  safe_label : Rtl.label option;
      (** header of the untouched original copy the run-time checks
          dispatch to *)
  load_groups : int;
  store_groups : int;
  stats : Transform.stats option;
  decision : Profitability.decision option;
  check_insts : int;
      (** run-time check instructions added to the dispatch block,
          including the unroller's divisibility test *)
  guards_emitted : int;
      (** alignment/alias guards actually emitted into the dispatch *)
  guards_elided : int;
      (** guards discharged statically by {!Disambig} *)
  elisions : Disambig.elision list;
      (** one certified elision per discharged guard, in emission order —
          {!Mac_verify.Audit} re-verifies every certificate *)
}

val run :
  ?am:Mac_dataflow.Analysis.t ->
  ?facts:Disambig.facts ->
  Func.t ->
  machine:Mac_machine.Machine.t ->
  options ->
  loop_report list
(** Transform every eligible loop of [f] in place. With [?am], the
    per-candidate CFG/dominator/loop recomputation goes through the
    analysis manager (only mutations — unroll, splice — invalidate it).
    [?facts] (default {!Disambig.empty}) feeds the static disambiguation
    oracle; with no facts, or with [options.force_guards], every guard
    is emitted. *)

val pp_report : Format.formatter -> loop_report -> unit
