(** Static cache-behaviour and cycle estimator — no simulation.

    Given a compiled function and the concrete entry arguments a
    benchmark instance would pass, the estimator walks the control-flow
    graph once per loop-nest level (never once per iteration): straight
    line code is abstractly executed over a concrete-constant domain,
    every loop body is symbolically executed two or three times to
    observe the per-iteration deltas of its induction state, trip counts
    are solved in closed form from the exit branches, and each
    load/store becomes an affine access stream [(start, stride, width,
    trip)]. The streams are folded through {!Mac_dataflow.Reuse} —
    self-temporal/self-spatial/group reuse, capacity-gated merging
    across loop levels, FIFO residency between siblings — into predicted
    d-cache miss counts, and through the machine's cost tables
    ({!Mac_opt.Sched.sequential_cycles}, which mirrors the simulator's
    in-order stall rules) into predicted cycles. Work is proportional to
    code size times loop depth, so a cell that takes seconds to simulate
    is estimated in well under a millisecond.

    The tolerance contract against the simulator (conflict misses in the
    direct-mapped cache are not modelled, data-dependent trip counts are
    assumed maximal, misalignment penalties are sampled at the first
    iteration) is stated in DESIGN.md §13 and enforced by
    test/test_estimate.ml. *)

open Mac_rtl
module Reuse = Mac_dataflow.Reuse

val func :
  ?model_icache:bool ->
  ?read:(int64 -> int -> int64 option) ->
  ?resolve:(string -> Func.t option) ->
  machine:Mac_machine.Machine.t ->
  args:int64 list ->
  Func.t ->
  Reuse.summary
(** Estimate one function entered with [args] bound positionally to its
    parameters. [read addr bytes] is an oracle for the {e initial}
    memory image (the benchmark's prepared buffers), returning the
    zero-extended little-endian value — without it, loaded values are
    unknown, which still estimates plain array kernels but loses
    pointer-chasing ones. [resolve] maps callee names to bodies so calls
    are walked inline (unresolved calls make the result approximate).
    A register-allocated function's frame pointer is bound to a
    synthetic address far from any workload buffer, so its spill
    traffic is estimated against a region of its own. With
    [model_icache] the simulator's instruction-fetch model (32-byte
    lines) is approximated by the cold code footprint. *)

val horizon : int
(** The fixed iteration horizon {!body_miss_cycles} is expressed over. *)

val body_miss_cycles : machine:Mac_machine.Machine.t -> Rtl.inst list -> int
(** Steady-state d-cache miss cycles one iteration of a (single-block)
    loop body is predicted to pay, from the partition strides of its
    memory references — the term the [`Estimate] profitability mode adds
    on top of the list-schedule latency. Per-iteration rates are
    averaged over a fixed horizon so the result is deterministic. *)

val pp_summary :
  machine:Mac_machine.Machine.t ->
  Format.formatter ->
  Reuse.summary ->
  unit
(** The [mcc --estimate] report: per-loop reference streams (stride,
    width, reuse class, predicted lines) and the function totals. *)
