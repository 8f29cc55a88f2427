(** Reaching definitions (forward, may), on the packed-bitvector solver,
    reduced to the one question its clients ask: does any definition of
    a register reach a use. Each function parameter counts as defined at
    the entry, so "supplied from outside" is defined. *)

open Mac_rtl

type t

val compute : Mac_cfg.Cfg.t -> t

val iter_undefined_uses : t -> block:int -> (Rtl.inst -> Reg.t -> unit) -> unit
(** [iter_undefined_uses t ~block k] calls [k i r] for every use of [r]
    by an instruction [i] of [block] that no definition reaches, in body
    order and, within an instruction, in {!Rtl.uses} order. A use is
    reached when an earlier instruction of the block defines [r] (an
    instruction's own definitions come after its uses, so [r = r + 1]
    does not define its own operand), or else when a definition of [r]
    reaches the block entry. One forward walk of the block, copying no
    bitvector. *)
