(** Run-time alias and alignment analysis (the paper's §2.2 and Fig. 5).

    When static analysis cannot prove that a wide reference will be
    naturally aligned, or that two partitions (arrays) do not overlap, the
    transformation is still performed — guarded by checks emitted into the
    loop preheader that branch to the original {e safe} loop when a hazard
    is present at run time. The paper reports 10–15 such instructions per
    loop; the [check_insts] field of {!Coalesce.loop_report} counts ours.

    All address computations are materialised from {!Linform} values, which
    are expressed over register values at loop entry — exactly the values
    the registers hold in the dispatch block. *)

open Mac_rtl
module Linform = Mac_opt.Linform

val materialize :
  Func.t -> Linform.t -> (Rtl.kind list * Rtl.operand) option
(** Code evaluating a linear form into an operand at the dispatch point;
    [None] if the form involves opaque symbols. *)

type memo
(** Cache of already-materialised symbolic bases within {e one} dispatch
    sequence (one straight-line region, so the first materialisation
    dominates every reuse). Checks sharing a [memo] evaluate each distinct
    term list once and add their constant displacements to the cached
    register. *)

val create_memo : unit -> memo

val alignment_check :
  ?memo:memo ->
  Func.t ->
  safe_label:Rtl.label ->
  addr:Linform.t ->
  wide:Width.t ->
  Rtl.kind list option
(** [addr & (bytes wide - 1) <> 0 -> safe_label]. *)

(** One partition's memory footprint over the whole remaining execution of
    the loop, as needed by the overlap test. *)
type extent = {
  base : Linform.t;  (** symbolic part (const 0) of the partition *)
  advance : int64;  (** bytes the partition moves per iteration *)
  lo_off : int64;  (** lowest offset referenced in one iteration *)
  hi_off : int64;  (** one past the highest byte referenced *)
}

val extent_of :
  Partition.analysis -> Partition.t -> extent option
(** [None] when the partition's advance is not a compile-time constant,
    its base involves opaque symbols, or it has no references at all (an
    empty partition has no footprint — not an inverted
    [(max_int, min_int)] one). *)

val alias_check :
  ?memo:memo ->
  Func.t ->
  safe_label:Rtl.label ->
  trip:Mac_opt.Induction.trip ->
  a:extent ->
  b:extent ->
  Rtl.kind list option
(** Code branching to [safe_label] if the two extents overlap at run time:
    [lo_a < hi_b && lo_b < hi_a]. The whole-loop extents are derived from
    the remaining trip distance [(bound - iv)], so each partition's total
    movement is [distance * (advance / |step|)]; [None] when [advance] is
    not a multiple of the step. The extent conservatively includes one
    extra trailing iteration. *)
