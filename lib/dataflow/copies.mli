(** Available copies (forward, must), on the packed-bitvector solver: at
    a program point, which [dst <- src] moves are sure to hold, where
    [src] is a register or an immediate. Backs global copy and constant
    propagation. *)

open Mac_rtl

type t

val compute : Mac_cfg.Cfg.t -> t

val fold_block :
  t ->
  int ->
  init:'a ->
  f:('a -> Rtl.inst -> (Reg.t -> Rtl.operand option) -> 'a) ->
  'a
(** One walk over block [b]'s instructions in body order, calling
    [f acc i look] where [look r] is [Some src] when the copy
    [r <- src] is available {e before} [i]. [look] answers for that point
    {e only for the duration of the call} (one working vector is
    transferred in place afterwards). In a block no path from the entry
    reaches, every lookup answers [None]. *)
