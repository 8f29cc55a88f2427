(** Natural-loop detection.

    Loops are found from back edges [latch -> header] where the header
    dominates the latch; the loop body is the usual natural-loop closure.
    The transformations in this repository (unrolling, coalescing) apply to
    {e simple} loops — a single-block body whose terminator branches back to
    its own label, the shape vpo emits for counted [for]/[while] loops with
    a zero-trip guard in front (paper Fig. 1b). *)

open Mac_rtl

module IntSet : Set.S with type elt = int

type t = {
  header : int;  (** block index of the loop header *)
  latches : int list;  (** sources of the back edges *)
  blocks : IntSet.t;  (** all blocks of the natural loop, header included *)
  preheader : int option;
      (** the unique predecessor of the header outside the loop, if any *)
}

val natural_loops : Cfg.t -> Dom.t -> t list
(** All natural loops, deduplicated by header (back edges sharing a header
    are merged), outermost first in block order. *)

(** The decomposed form of a simple loop, ready for splicing
    transformations. *)
type simple = {
  loop : t;
  header_label : Rtl.label;
  body : Rtl.inst list;
      (** instructions strictly between the label and the back branch *)
  back_branch : Rtl.inst;  (** the [Branch] returning to [header_label] *)
}

val simple_of : Cfg.t -> t -> simple option
(** [None] if the loop is not simple or its block does not end in a
    conditional branch back to its own label. *)
