(** The per-function analysis manager.

    One [t] per function being compiled: the CFG view, dominators,
    natural loops, liveness, reaching definitions and available copies
    are computed on first demand and memoised until a pass invalidates
    them. Passes declare what they {e preserve}; {!invalidate} drops
    only what a pass clobbers, so e.g. an instruction-local rewrite can
    keep dominators and loops alive across the coalescer's per-loop
    iteration instead of recomputing them a dozen times per function.

    Dependency closure is enforced internally: the dataflow facts embed
    the CFG view, so they are only preserved alongside [Cfg]; [Loops]
    is only preserved alongside [Dom]. [Dom]/[Loops] are pure
    block-index structures and may legitimately survive a CFG rebuild
    after a 1:1 instruction rewrite. *)

open Mac_rtl

type fact = Cfg | Dom | Loops | Live | Reach | Copies

type t

val create : Func.t -> t
(** A fresh manager with nothing computed. {!liveness}, {!reaching} and
    {!copies} run the one packed-bitvector solver ({!Dataflow.solve_bits}). *)

val cfg : t -> Mac_cfg.Cfg.t
val loops : t -> Mac_cfg.Loop.t list
val liveness : t -> Liveness.t
val reaching : t -> Reaching.t
val copies : t -> Copies.t

val invalidate : t -> preserves:fact list -> unit
(** Drop every memoised fact not listed in [preserves] (subject to the
    dependency closure above). Call after a pass changed the function. *)

val invalidate_all : t -> unit

val coherent : t -> (unit, string) result
(** Check that the memoised CFG view still matches the function body
    instruction for instruction (uid and kind). An [Error] means a pass
    mutated the function but declared a [preserves] set that kept a
    stale CFG — the verifier surfaces this as an error diagnostic. *)
