(** Reaching definitions (forward, may), on the packed-bitvector solver.

    Definitions are identified by the uid of the defining instruction.
    Function parameters are modelled as a pseudo-definition with uid [-1 -
    Reg.id r] so "possibly defined outside" is distinguishable. *)

open Mac_rtl

type t

module IntSet : Set.S with type elt = int

val compute : Mac_cfg.Cfg.t -> t

val defs_of_reg_reaching : t -> block:int -> before:Rtl.inst -> Reg.t ->
  IntSet.t
(** The uids of the definitions of one register that reach the program
    point just before [before] (which must belong to [block]). Raises
    [Not_found] if [before] is not in the block. Costs one walk of the
    block prefix, independent of the block's position in the function. *)
