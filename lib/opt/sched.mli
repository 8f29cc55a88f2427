(** Static instruction scheduling for basic blocks.

    Builds the dependence DAG (register RAW/WAR/WAW, conservative memory
    ordering with base+displacement disambiguation, calls as barriers) and
    runs latency-aware list scheduling for a single-issue pipeline of the
    given machine. The paper's profitability analysis (Fig. 3) schedules
    the original and the coalesced loop bodies and compares cycle counts. *)

open Mac_rtl

type node = {
  inst : Rtl.inst;
  mutable preds : int;  (** outstanding dependence count *)
  mutable succs : (int * int) list;  (** successor index, edge latency *)
  mutable height : int;  (** critical-path priority *)
}
(** One DAG node per input instruction, in input order. Edges run forward
    only ([i < j]); a RAW edge carries the producer's latency, every
    other hazard latency 1. *)

val is_barrier : Rtl.kind -> bool
(** Control transfers and labels: they order against everything on both
    sides of the DAG and disqualify a loop body from pipelining. *)

val build_dag : Mac_machine.Machine.t -> Rtl.inst list -> node array
(** The dependence DAG the schedulers (list and modulo) share: register
    RAW/WAR/WAW, conservative memory ordering with base+displacement
    disambiguation, branches/calls/labels as barriers. *)

val issue_cost : Mac_machine.Machine.t -> Rtl.kind -> int
(** [max 1 (Machine.inst_cost m kind)] — the issue-slot occupancy of one
    instruction on the single-issue pipeline; the lookup
    {!block_cycles}, {!sequential_cycles} and the modulo scheduler all
    price slots with. *)

val block_cycles : Mac_machine.Machine.t -> Rtl.inst list -> int
(** Estimated cycles to execute the instruction sequence once, scheduling
    freely within the block. Labels cost nothing. *)

val sequential_cycles : Mac_machine.Machine.t -> Rtl.inst list -> int
(** Cycles in program order with load-use stalls but no reordering — the
    naive cost model used by the [`CostSum] ablation. *)

val reorder : Mac_machine.Machine.t -> Rtl.inst list -> Rtl.inst list
(** The list-scheduled order itself (a permutation of the input respecting
    dependences; the terminator stays last). *)
