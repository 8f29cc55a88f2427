(** RTL simulator with cycle accounting.

    Executes an RTL program against a {!Memory} image and a machine
    description, producing deterministic metrics: dynamic instructions,
    cycles (issue costs + data-cache miss penalties + load-use and
    multiply-use stalls), memory reference counts, cache statistics and a
    per-label execution count (used by tests to observe which of the
    coalesced/safe loop versions the run-time checks selected).

    Alignment contract: a [mem] with [aligned = true] whose effective
    address is not width-aligned traps — unless the machine supports
    unaligned accesses of that width (MC68030), in which case it proceeds
    with a cycle penalty. [aligned = false] (Alpha LDQ_U/STQ_U) accesses
    the enclosing naturally-aligned word.

    There is one engine: {!Decode} resolves each called function once
    per run (branch targets, costs, latencies, access legality, fetch
    addresses, and stall sets cut to the registers that can stall: those
    a load or a def whose latency outruns its issue defines), then
    {!Jit} compiles it into a chain of OCaml closures specialized on
    operation, operand shape and stall-set size, with fused
    superinstructions, an inlined data-cache fast path and a per-leader
    block cache. The test suite
    pins it to a tree-walking oracle ([test/sim_oracle.ml]): same
    return value, same heap contents, same metrics (including
    [label_counts] and [icache_misses]) and same trap strings. *)

open Mac_rtl

exception Trap of string
(** Misaligned access, illegal memory width for the machine, division by
    zero, undefined function, or fuel exhaustion. *)

type program = Func.t list

type metrics = {
  insts : int;
  cycles : int;
  loads : int;  (** dynamic load instructions *)
  stores : int;
  dcache_hits : int;
  dcache_misses : int;
  icache_misses : int;
      (** instruction-fetch misses; 0 unless [model_icache] was set *)
  label_counts : (Rtl.label * int) list;  (** labels in program order *)
}

type result = {
  value : int64;
  metrics : metrics;
  phases : (string * float) list;
      (** wall-clock seconds per simulator phase, in order:
          [("decode", _); ("compile", _); ("execute", _)], read off
          the monotonic clock. Timing-only — excluded from metric
          comparisons and from deterministic JSON output. *)
}

val run :
  machine:Mac_machine.Machine.t ->
  memory:Memory.t ->
  program ->
  entry:string ->
  args:int64 list ->
  ?fuel:int ->
  ?model_icache:bool ->
  unit ->
  result
(** [fuel] bounds dynamic instructions (default 2_000_000_000). The entry
    function's return value is [0] for [void].

    [model_icache] (default false) additionally simulates instruction
    fetch through a direct-mapped cache of the machine's [icache_bytes]:
    each non-pseudo instruction occupies [bytes_per_inst] at a synthetic
    address, and a fetch miss costs the machine's
    [icache_miss_penalty]. This is
    what makes the paper's warning measurable — "naive loop unrolling may
    cause the size of a loop to grow larger than the instruction cache" —
    see the ABL8 bench. The headline tables leave it off, matching the
    paper's evaluation framing. *)
