(** Registers of the RTL machine model.

    Following vpo, all code improvement happens on register transfer lists
    whose operands are registers [r\[n\]]. Before register assignment the
    supply is unbounded (virtual registers); the linear-scan allocator in
    [Mac_opt.Regalloc] can later rewrite them to a finite machine set. All
    registers are modelled as 64-bit fixed-point registers; narrower
    machines simply never materialise values wider than their word. *)

type t = private int

val make : int -> t
(** [make n] is register [r\[n\]]. [n] must be non-negative. *)

val id : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints vpo style: [r\[7\]]. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
