(** RTL interpreter with cycle accounting.

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
    the enclosing naturally-aligned word. *)

open Mac_rtl

exception Trap of string
(** Misaligned access, illegal memory width for the machine, division by
    zero, undefined function, or fuel exhaustion. *)

type program = Func.t list

type engine = [ `Reference | `Jit ]
(** [`Jit] (the default, and the one production engine) decodes each
    called function once per run with {!Decode} — branch targets, costs,
    latencies, stall sets, access legality and fetch addresses all
    resolved up front — then compiles it into a chain of OCaml closures
    with fused superinstructions, an inlined data-cache fast path and a
    per-leader block cache (see {!Jit}). [`Reference] is the original
    tree-walking evaluator, kept only as the oracle. The two are
    bit-identical — same return value, same heap contents, same metrics
    (including [label_counts] and [icache_misses]) and same trap strings
    on every program; [test_engine] pins the jit to the reference. *)

val default_engine : engine
(** [`Jit]: what {!run} uses when [?engine] is omitted. *)

val engine_name : engine -> string
(** ["reference"] or ["jit"], the spelling [mcc --engine] accepts. *)

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
          the monotonic clock. The reference engine reports 0 for
          decode and compile. Timing-only — excluded from metric
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
  ?engine:engine ->
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

val label_count : metrics -> Rtl.label -> int
