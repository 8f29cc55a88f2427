(** Control-flow graphs over RTL function bodies.

    The CFG is a read-only {e view}: transformation passes edit the flat
    instruction list in {!Mac_rtl.Func} and rebuild the view. Block 0 is the
    function entry. *)

open Mac_rtl

type block = {
  index : int;
  label : Rtl.label option;  (** the block's leading label, if any *)
  insts : Rtl.inst list;  (** including the label and the terminator *)
}

type t = {
  func : Func.t;
  blocks : block array;
  succ : int list array;
  pred : int list array;
}

val build : Func.t -> t
(** Split the body into maximal basic blocks (leaders are the first
    instruction, labels, and instructions after terminators) and compute
    edges. A block whose last instruction is not a terminator falls through
    to the next block. *)

val entry : t -> int
val block_of_label : t -> Rtl.label -> int option
val non_label_insts : block -> Rtl.inst list
(** The block's instructions without the leading label. *)

val reachable : t -> bool array
(** Blocks reachable from the entry. *)

val rpo : t -> int array
(** A dense visiting order for dataflow solvers: the reachable blocks in
    reverse postorder (entry first), followed by the unreachable blocks in
    index order (so every block is present exactly once). *)
