(** Available copies (forward, must), on the packed-bitvector solver: at
    a program point, which [dst <- src] moves are sure to hold, where
    [src] is a register or an immediate. Backs global copy and constant
    propagation. *)

open Mac_rtl

type t

val compute : Mac_cfg.Cfg.t -> t

val copies_query : t -> int -> (Rtl.inst * (Reg.t -> Rtl.operand option)) list
(** For block [b], each instruction paired with a lookup of the copies
    available {e before} it: [look r] is [Some src] when the copy
    [r <- src] holds there. In a block no path from the entry reaches,
    every lookup answers [None]. *)

val fold_block :
  t ->
  int ->
  init:'a ->
  f:('a -> Rtl.inst -> (Reg.t -> Rtl.operand option) -> 'a) ->
  'a
(** {!copies_query} as one walk: visits block [b]'s instructions in body
    order, calling [f acc i look] where [look] answers for the point
    before [i] {e only for the duration of that call} (one working
    vector is transferred in place afterwards). *)
