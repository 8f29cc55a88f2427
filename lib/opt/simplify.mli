(** Constant folding, algebraic simplification and branch folding.

    A per-instruction rewriting pass: it never moves code, only replaces
    individual instructions with cheaper equivalents ([Move]s, folded
    immediates, shifts for power-of-two multiplies, [Jump]/[Nop] for decided
    branches). *)

open Mac_rtl

val run : Func.t -> bool
(** Simplify every instruction in place; returns [true] if anything
    changed. *)
