(** Linear-scan register allocation (Poletto–Sarkar).

    Rewrites a function's unbounded virtual registers onto a finite machine
    set. Registers [0 .. num_regs-4] are allocatable; the top three are
    reserved as spill staging temporaries (plus [num_regs-4] as scratch
    for split spills, see {!run}) and register [num_regs] (one past
    the machine set) becomes the frame pointer when anything spills —
    spill slots live in a stack frame recorded in [Func.frame_bytes] and
    addressed through [Func.fp_reg], which the simulator initialises on
    call.

    Live intervals come from the block-level liveness solution, so values
    live across back edges are kept alive through the whole loop.
    Parameters are never spilled (they arrive in registers). *)

open Mac_rtl

exception Too_few_registers of string

type result = {
  virtuals : int;  (** virtual registers seen *)
  spilled : int;  (** virtual registers sent to stack slots *)
  frame_bytes : int;
}

val run :
  ?am:Mac_dataflow.Analysis.t -> Func.t -> machine:Mac_machine.Machine.t ->
  num_regs:int -> result
(** Allocate in place. Each spill slot holds all 64 bits of the register:
    one W64 store and reload where [machine] has them, otherwise two
    unsigned W32 halves, which reserves a fourth register
    ([num_regs - 4]) as scratch whenever anything spills. Raises
    {!Too_few_registers} when [num_regs] cannot accommodate the
    parameters plus the reserved temporaries ([num_regs >= params + 4]
    is always sufficient). With [?am], live intervals come from the
    manager's cached CFG and liveness; the manager is fully invalidated
    afterwards (allocation renames every register). *)
