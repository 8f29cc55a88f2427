(** Memory-reference partitioning and coalescing-group selection
    (paper Fig. 2, [ClassifyMemoryReferencesIntoPartitions] and
    [CalculateRelativeOffsets]).

    All memory references of a (single-block, usually unrolled) loop body
    are put into disjoint partitions keyed by the symbolic part of their
    address linear form — the loop-invariant base (e.g. the start address
    of an array parameter) plus the induction-variable contribution. Within
    a partition every reference has a constant relative offset; coalescing
    then looks for word-sized {e windows} of offsets to replace with one
    wide reference. *)

open Mac_rtl
module Linform = Mac_opt.Linform

type direction = Dload of Rtl.signedness | Dstore of Rtl.operand

type ref_info = {
  index : int;  (** position of the instruction in the body *)
  inst : Rtl.inst;
  mem : Rtl.mem;
  dir : direction;
  addr : Linform.t;  (** effective address at that program point *)
}

type t = {
  id : int;
  terms : (Linform.sym * int64) list;  (** shared symbolic address part *)
  refs : ref_info list;  (** in body order *)
}

type analysis = {
  partitions : t list;
  env_end : Linform.env;  (** symbolic state after the whole body *)
}

val analyze : Rtl.inst list -> analysis
(** Symbolically execute the body and partition its memory references. *)

val advance : analysis -> t -> int64 option
(** How many bytes the partition's addresses advance per loop iteration
    (the change of the symbolic part across the body), when that change is
    a compile-time constant. *)

val offsets : t -> int64 list
(** Sorted distinct relative offsets of the partition's references. *)

(** A selected coalescing group: the references inside one wide window. *)
type group = {
  partition : t;
  window_start : int64;  (** relative offset of the wide reference *)
  wide : Width.t;
  members : ref_info list;  (** body order *)
}

val select_load_groups : t -> wide:Width.t -> group list
(** Greedy selection of wide windows covering at least two load references.
    All windows of one partition share the same start residue modulo the
    wide width (they must agree on run-time alignment); conflicting
    candidates are dropped. *)

val select_store_groups : ?residue:int64 -> t -> wide:Width.t -> group list
(** Store windows must additionally be {e fully} covered by the member
    stores (the wide store writes every byte of the window), otherwise the
    wide store would invent values for unwritten bytes. [?residue]
    constrains the window starts modulo the wide width (used to keep a
    partition's store windows on the same alignment class as its load
    windows, since only one class can pass the run-time alignment
    check). *)
