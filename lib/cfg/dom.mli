(** Dominator analysis (iterative bit-set algorithm).

    Small CFGs only ever arise here (single functions of kernel loops), so
    the classic O(n^2) iteration is plenty. *)

type t

val compute : Cfg.t -> t

val dominates : t -> int -> int -> bool
(** [dominates t a b] is true iff block [a] dominates block [b] (reflexive:
    every block dominates itself). Unreachable blocks are dominated by
    everything, matching the standard lattice. *)
