(** Modulo scheduling and software pipelining for simple loops (the
    [-Osched] pass).

    Computes MII as the larger of the recurrence bound (positive-cycle
    test over the dependence graph with distance-1 loop-carried edges)
    and the resource bound (issue-slot sum for the single-issue
    pipeline), then searches for a feasible II with an iterative modulo
    scheduling core (Rau-style schedule-with-eviction). A successful
    multi-stage schedule is committed as prologue + kernel + epilogue
    with modulo variable expansion — the kernel is unrolled by the stage
    count so every renamed-register copy index is static — behind the
    same divisibility/trip-count dispatch the unroller emits, with the
    original loop kept as the run-time fallback. The search is bounded
    above by the list schedule ({!Sched.block_cycles}), whose times are
    always a feasible single-stage modulo schedule, so the achieved II
    is never worse than list scheduling; a register-pressure ceiling
    derived from the machine register file ([max_regs - 4], matching
    {!Regalloc}'s three reserved spill temporaries plus the frame
    pointer) rejects overlaps the allocator would have to spill back. *)

open Mac_rtl

type status =
  | Pipelined  (** S >= 2: prologue/kernel/epilogue committed *)
  | Reordered  (** S = 1: body reordered in place, no overlap *)
  | Rejected of string

type report = {
  header : Rtl.label;
  body_insts : int;
  mii_rec : int;  (** recurrence lower bound on II *)
  mii_res : int;  (** resource (issue-slot) lower bound on II *)
  ii : int;  (** achieved initiation interval *)
  stages : int;  (** S; 1 means no cross-iteration overlap was found *)
  kernel_insts : int;
  pressure : int;  (** max simultaneously-live values, modulo II *)
  reg_ceiling : int option;  (** pressure ceiling, when allocating *)
  list_ii : int;  (** {!Sched.block_cycles} of the body: the baseline *)
  status : status;
}

type cert = {
  c_body : Rtl.inst list;  (** original loop body, terminator excluded *)
  c_times : int array;  (** schedule time per body index *)
  c_ii : int;
  c_stages : int;
  c_shared : Reg.Set.t;  (** loop-carried registers, kept un-renamed *)
  c_branch_uses : Reg.t list;  (** registers the back branch reads *)
  c_kernel : Rtl.label;  (** label of the committed kernel (or loop) *)
}
(** The schedule evidence recorded for the independent audit
    ({!Mac_verify}): enough to re-derive the dependence graph from the
    recorded body and re-check every edge, the resource table, the
    stage-0 pinning of loop-carried definitions and the MII bounds. *)

type edge = { src : int; dst : int; lat : int; dist : int }

val loop_shared :
  body:Rtl.inst list -> branch_uses:Reg.t list -> Reg.Set.t
(** Loop-carried registers: defined in the body and either
    upward-exposed or read by the back branch. These keep their names
    across overlapped iterations; everything else body-defined is
    renamed per concurrent iteration. *)

val edges :
  Mac_machine.Machine.t ->
  shared:Reg.Set.t ->
  Rtl.inst array ->
  edge list * int array
(** All scheduling constraints for the body: {!Sched.build_dag}'s
    intra-iteration edges at distance 0 plus distance-1 cross-iteration
    edges (every hazard on a shared register; every memory pair not both
    loads), and the critical-path heights used as scheduling priority. *)

val steady_ii : Mac_machine.Machine.t -> ?max_regs:int -> Rtl.inst list -> int
(** The [Pipelined] profitability oracle: steady-state cycles per
    iteration if the candidate loop body were software-pipelined — the
    achieved II of the straight-line part plus the issue cost of any
    terminators in the list. Never worse than
    {!Sched.block_cycles} of the straight-line part. *)

val run :
  ?am:Mac_dataflow.Analysis.t ->
  ?max_regs:int ->
  Func.t ->
  machine:Mac_machine.Machine.t ->
  bool * (report * cert option) list
(** Attempt to software-pipeline every simple loop of [f] (loops the
    transformation itself introduces — kernel and fallback — are not
    revisited). Returns whether the function changed and one report per
    attempted loop, with the audit certificate for committed schedules.
    Invalidates [am] with an empty [preserves] set after each committed
    transformation. *)

val pp_report : Format.formatter -> report -> unit
