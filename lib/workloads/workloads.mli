(** The paper's benchmark suite (Table I) plus the Fig. 1 dot product.

    Each benchmark bundles MiniC source, a deterministic input generator,
    an OCaml reference implementation used to validate outputs, and buffer
    layout control — tests deliberately misalign or overlap buffers to
    exercise the coalescer's run-time checks. [~size] scales the paper's
    500×500 shapes down for fast tests. *)

(** A prepared run: entry arguments plus the memory regions to compare
    against the reference. *)
type instance = {
  args : int64 list;
  outputs : (string * int64 * int) list;  (** name, address, length *)
  expected : (string * Bytes.t) list;
      (** reference contents per output region *)
  expected_value : int64 option;  (** expected return value, if any *)
}

type layout = { align : int; skew : int; overlap : bool }
(** [skew] shifts every buffer start by that many bytes off [align];
    [overlap] lays input and output buffers over each other to trip the
    run-time alias checks. *)

val default_layout : layout
(** 8-byte aligned, disjoint buffers. *)

type t = {
  name : string;
  description : string;
  paper_loc : int;  (** lines of code reported in Table I *)
  source : string;  (** MiniC *)
  entry : string;
  prepare : layout -> size:int -> Mac_sim.Memory.t -> instance;
  facts : layout -> size:int -> Mac_core.Disambig.facts;
      (** static disambiguation facts that are true by construction of
          [prepare] for that layout and size: alignment facts only for
          unskewed power-of-two layouts, allocation provenance only for
          disjoint buffers. Fed to the pipeline when the caller passes
          [~assume_layout:true]. *)
}

val all : t list
(** The seven Table I/Table II rows: convolution, image_add, image_add16,
    image_xor, translate, eqntott, mirror. *)

val dotproduct : t
(** The Fig. 1 dot product. *)

val find : string -> t option
(** Look a benchmark up by name ({!dotproduct} included). *)

val dotproduct_src : string
(** The Fig. 1 source, exposed for examples and tests. *)

val image_binop_src : string -> string -> string
(** [image_binop_src name op] is the source of a pixelwise [c\[i\] = a\[i\]
    op b\[i\]] kernel (used by tests to build deliberately wrong
    variants). *)

(** {1 Running} *)

type outcome = {
  value : int64;
  metrics : Mac_sim.Interp.metrics;
  reports : (string * Mac_core.Coalesce.loop_report list) list;
  sched_reports :
    (string
    * (Mac_opt.Pipeline_sched.report * Mac_opt.Pipeline_sched.cert option)
      list)
      list;
      (** per-loop [-Osched] reports per function (empty unless
          [?pipeline_sched] is on; see {!Mac_vpo.Pipeline.compiled}) *)
  diags : (string * Mac_verify.Diagnostic.t list) list;
      (** verifier warnings/infos per function (see
          {!Mac_vpo.Pipeline.compiled}) *)
  compile_seconds : float;  (** wall-clock of the whole compilation *)
  pass_seconds : (string * float) list;
      (** compile time by pass name, summed over functions and rounds
          (see {!Mac_vpo.Pipeline.compiled}) *)
  tvalid_stats : (string * Mac_verify.Tvalid.agg) list;
      (** per-pass translation-validation counters and seconds (empty
          unless [?verify] is [Vfull]; see
          {!Mac_vpo.Pipeline.compiled.tvalid_stats}) *)
  sim_seconds : float;  (** wall-clock of the simulation run *)
  sim_phases : (string * float) list;
      (** simulation time by phase — decode, compile, execute — as
          reported by {!Mac_sim.Interp.result.phases} ([mcc
          --explain=sim]) *)
  correct : bool;  (** output matched the reference *)
  error : string option;  (** the mismatch description when not *)
}

val run :
  ?layout:layout ->
  ?size:int ->
  ?coalesce:Mac_core.Coalesce.options ->
  ?legalize_first:bool ->
  ?strength_reduce:bool ->
  ?regalloc:int ->
  ?schedule:bool ->
  ?pipeline_sched:bool ->
  ?verify:Mac_vpo.Pipeline.verify_level ->
  ?model_icache:bool ->
  ?assume_layout:bool ->
  machine:Mac_machine.Machine.t ->
  level:Mac_vpo.Pipeline.level ->
  t ->
  outcome
(** Compile the benchmark with the given pipeline configuration, run it on
    a fresh memory image, and verify the outputs against the reference.
    Defaults: {!default_layout}, [size = 100], the pipeline defaults of
    {!Mac_vpo.Pipeline.config}. [?verify] enables the per-pass Rtlcheck
    (and, at [Vfull], the coalescing audit); error-severity diagnostics
    raise {!Mac_vpo.Pipeline.Verification_failed}.
    [~assume_layout:true] feeds the benchmark's layout-conditioned
    {!t.facts} to the static disambiguation oracle, letting provable
    guards be elided; a [coalesce] with [force_guards] set keeps every
    guard regardless (the elision property tests compare the two). *)

(** {1 Static estimation}

    The simulation-free path: compile the benchmark and prepare its
    memory image exactly as {!run} would, then predict the cell's
    metrics with {!Mac_core.Estimate} instead of executing it. The
    prepared-but-never-run memory backs the estimator's initial-memory
    oracle, so pointer-chasing kernels (eqntott) resolve their
    indirections statically. *)

type prediction = {
  summary : Mac_dataflow.Reuse.summary;
      (** predicted instruction/cycle/load/store/miss totals and the
          per-loop reuse profiles behind them *)
  est_seconds : float;
      (** wall-clock of the estimate itself — the number simulation time
          is traded against in {!Estcells} triage *)
  est_compile_seconds : float;  (** wall-clock of the compilation *)
}

val estimate :
  ?layout:layout ->
  ?size:int ->
  ?coalesce:Mac_core.Coalesce.options ->
  ?legalize_first:bool ->
  ?strength_reduce:bool ->
  ?regalloc:int ->
  ?schedule:bool ->
  ?model_icache:bool ->
  ?assume_layout:bool ->
  machine:Mac_machine.Machine.t ->
  level:Mac_vpo.Pipeline.level ->
  t ->
  prediction
(** Same configuration surface as {!run} minus [?pipeline_sched] and
    [?verify]: {!Mac_core.Estimate.func} on the compiled entry
    function. *)

(** {1 Differential execution}

    The strongest check Rtlcheck offers: compile the same benchmark at
    [O0] and at an optimized level, run both through {!Mac_sim.Interp} on
    identically prepared memory images, and demand that the return value
    and the entire heap agree byte for byte. *)

type differential = {
  base : outcome;  (** the O0 run *)
  opt : outcome;  (** the optimized run *)
  agree : bool;
  detail : string option;  (** first observed divergence *)
}

val differential :
  ?layout:layout ->
  ?size:int ->
  ?coalesce:Mac_core.Coalesce.options ->
  ?legalize_first:bool ->
  ?strength_reduce:bool ->
  ?schedule:bool ->
  ?pipeline_sched:bool ->
  ?verify:Mac_vpo.Pipeline.verify_level ->
  ?assume_layout:bool ->
  machine:Mac_machine.Machine.t ->
  level:Mac_vpo.Pipeline.level ->
  t ->
  differential
(** Run [bench] at [O0] and at [level] and compare the return values and
    all heap bytes from the allocator base (address 64) up. Register
    allocation is deliberately unavailable here: spill frames are
    unobservable program state and would differ between levels. *)
