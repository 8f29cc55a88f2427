(** Dead-code elimination.

    Removes instructions that define registers that are not live afterwards
    and have no side effect, plus [Nop]s, plus unreachable blocks. Iterates
    to a fixed point internally. *)

open Mac_rtl

val run : ?am:Mac_dataflow.Analysis.t -> Func.t -> bool
(** Returns [true] if anything was removed. With [?am], reads the CFG and
    liveness through the analysis manager and invalidates it per internal
    iteration ([Dom]/[Loops] survive unless an unreachable block was
    dropped, which shifts block indices). *)

val remove_faint : Func.t -> bool
(** One faint-register sweep, the step {!run} takes once liveness-based
    removal is quiet: a register is faint when it is not a parameter and
    every instruction that reads it is a side-effect-free instruction
    whose only definition is the register itself. Removes every
    side-effect-free single definition of a faint register; returns
    [true] if anything was removed. *)
