(** Live-register analysis (backward, may), on the packed-bitvector
    solver. *)

open Mac_rtl

type t

val compute : Mac_cfg.Cfg.t -> t

val live_in : t -> int -> Reg.Set.t
(** Registers live on entry to a block. *)

val for_all_in : t -> int -> (Reg.t -> bool) -> bool
(** [for_all_in t b p]: whether [p] holds for every register live on
    entry to block [b], asked in ascending {!Reg.compare} order and
    stopping at the first that fails; no set is built. *)

val for_all_out : t -> int -> (Reg.t -> bool) -> bool
(** {!for_all_in} over the registers live on exit from block [b]. *)

val live_after_each : t -> int -> (Rtl.inst * Reg.Set.t) list
(** For block [b], each instruction paired with the set of registers live
    {e after} it — what register allocation consults. *)

val fold_live_after :
  t ->
  int ->
  init:'a ->
  f:('a -> Rtl.inst -> (Reg.t -> bool) -> 'a) ->
  'a
(** {!live_after_each} as membership queries instead of materialized
    sets: visits the block's instructions in {e reverse} body order,
    calling [f acc i query] where [query] answers liveness-after-[i]
    membership {e only for the duration of that call} (the working
    vector is transferred in place afterwards). The cheapest form for a
    single linear consumer such as dead-code elimination, which asks
    only about an instruction's defs. *)
