(** Superblock closure compilation: the simulator's execution engine.

    Compiles each decoded function ({!Decode.fn}) once per run into a
    chain of OCaml closures — threaded code — and executes by indirect
    tail calls with no per-instruction dispatch. Four specializations
    beyond the pre-decoded form:

    - {b closures built on what decode knows}: one closure body per
      binop and per branch comparison, per operand shape
      (register/register or register/immediate), and per stall-set size,
      so nothing about the instruction is matched at run time. An
      instruction whose stall set ({!Decode.slot}[.reads]) is empty and
      whose def is not of a slow register ({!Decode.slot}[.sets_ready])
      runs no stall code and records no ready time. Rarer shapes (an
      immediate store source, two immediate operands, calls, returns)
      take a generic closure that is exact for every instruction;
    - {b superinstruction fusion}: adjacent pairs inside a basic block
      whose second instruction consumes exactly the first's result are
      compiled into one closure (address-compute+load, load+sext/zext,
      load+extract at a constant or register byte position,
      insert+store), forwarding the value in a local while still
      writing the register file and performing both halves' complete
      bookkeeping;
    - {b inlined d-cache fast path}: loads and stores with a legal
      access form on a power-of-two cache geometry inline the hit check
      and the little-endian byte access, falling back to the generic
      resolve/cache/memory sequence for faulting, misaligned or wild
      addresses (so every trap and fault string is identical);
    - {b block cache}: a direct-mapped array of compiled closures
      indexed by leader pc, so back edges chain without re-dispatch.

    Execution is bit-identical to the test suite's tree-walking oracle:
    values, memory, every metric counter, label counts, and trap
    strings. When an i-cache is modelled, every instruction takes the
    generic closure (each performs its own fetch access, so there is no
    fusion) but the closure-threaded control flow is kept. *)

module Machine = Mac_machine.Machine

exception Trap of string
(** Same runtime identity as [Interp.Trap] (rebound there). *)

type state
(** Mutable per-run execution state (metric counters, fuel, stack
    pointer, compiled-code cache). *)

val run :
  machine:Machine.t ->
  memory:Memory.t ->
  decode:Decode.t ->
  dcache:Cache.t ->
  icache:Cache.t option ->
  fuel:int ->
  entry:string ->
  args:int64 list ->
  int64 * state
(** Compile (on demand, per function) and execute [entry]. The caller
    owns the caches and the decode table and reads the metric oracles
    ([Cache] hit/miss counters, {!Decode.label_totals}) afterwards. *)

val insts : state -> int
val cycles : state -> int
val loads : state -> int
val stores : state -> int

val compile_seconds : state -> float
(** Seconds spent compiling closures, on the monotonic clock — the
    "compile" phase of the simulator profile ([mcc --explain=sim]). *)
