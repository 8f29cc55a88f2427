(** The machine-readable benchmark sweep behind [BENCH_sim.json].

    A {!cell} is one (section, benchmark, machine, level) simulation; the
    sweep covers the paper-table sections TAB2/TAB3/TAB4 (forced
    coalescing, as printed by the bench harness), SCHED (the same forced
    configuration with the [-Osched] software pipeliner on and the
    [Pipelined] profitability oracle, on the two CISC-ish machines) and
    FULL (the complete vpo-style pipeline on the Alpha). Cells are
    computed with {!Mac_parallel.Pool} — the computation fans over
    domains but the cell list, and therefore the emitted JSON, is
    identical for any worker count.

    The toolchain has no JSON library, so the emitter is hand-rolled and
    {!validate} re-reads the result with an independent minimal parser
    ({!Jsonio}) — this is what the CI smoke runs. *)

type cell = {
  section : string;  (** TAB2 | TAB3 | TAB4 | SCHED | FULL *)
  bench : string;
  machine : string;
  level : string;  (** O1..O4 *)
  cycles : int;
  insts : int;
  loads : int;
  stores : int;
  savings_pct : float option;
      (** cycle savings vs the section's unrolled (O2) baseline; present
          on O3/O4 cells *)
  correct : bool;
  guards_emitted : int;
      (** run-time dispatch guards emitted, summed over the cell's
          coalesced loops (from the per-loop coalescer reports) *)
  guards_elided : int;
      (** guards discharged statically by {!Mac_core.Disambig} under the
          benchmark's asserted layout facts *)
  sched_mii : int;
      (** minimum initiation interval (max of recurrence and resource
          bounds), summed over the cell's loops the [-Osched] pass
          committed; 0 when the pass was off *)
  sched_ii : int;
      (** achieved steady-state II, summed over the same committed loops
          — [sched_ii >= sched_mii] always, equality means every loop hit
          its lower bound *)
  pipelined : int;
      (** how many of those loops were genuinely software-pipelined
          (multi-stage kernel with prologue/epilogue) rather than
          reordered in place *)
  compile_seconds : float;
      (** wall-clock of this cell's compilation (a measurement — varies
          run to run, excluded from the determinism comparison) *)
  pass_seconds : (string * float) list;
      (** compile time by pass; aggregated across cells into the
          document-level [pass_seconds] object, not emitted per cell *)
  tvalid_seconds : (string * float) list;
      (** translation-validation time by validated pass (empty unless
          the cell compiled at [Vfull] — the FULL section does);
          aggregated across cells into the document-level
          [tvalid_seconds] object, emitted per cell only as a total
          under the timing gate *)
  sim_seconds : float;
      (** wall-clock of this cell's simulation run (a measurement,
          excluded from the determinism comparison like
          [compile_seconds]) *)
  sim_phases : (string * float) list;
      (** simulation time by phase (decode/compile/execute); aggregated
          across cells into the document-level [sim_phase_seconds]
          object, not emitted per cell *)
}

type speedup = {
  serial_reference_seconds : float;
  serial_jit_seconds : float;
  parallel_jit_seconds : float;
  ratio : float;  (** serial reference / parallel jit *)
  jit_ratio : float;  (** serial reference / serial jit, both at jobs=1 *)
}

val tab_cells :
  ?jobs:int ->
  ?engine:Mac_sim.Interp.engine ->
  size:int ->
  section:string ->
  machine:Mac_machine.Machine.t ->
  unit ->
  cell list
(** The benchmark x O1..O4 cells of one paper table (forced coalescing,
    {!Tables.table} semantics). *)

val sched_cells :
  ?jobs:int ->
  ?engine:Mac_sim.Interp.engine ->
  size:int ->
  unit ->
  cell list
(** The SCHED section: the TAB3/TAB4 machines (mc88100, mc68030) re-run
    with [pipeline_sched:true] and the [Pipelined] profitability mode, so
    the per-cell [sched_mii]/[sched_ii]/[pipelined] counters are live and
    the bench harness can gate SCHED cycles against the unscheduled TAB3
    cells. *)

val full_outcomes :
  ?jobs:int ->
  ?engine:Mac_sim.Interp.engine ->
  size:int ->
  unit ->
  (Workloads.t * Mac_vpo.Pipeline.level * Workloads.outcome) list
(** The FULL section's raw outcomes (benchmark x O2/O3/O4, full pipeline
    on the Alpha), in canonical order — the bench harness renders its
    FULL table from these. *)

val cells_of_full_outcomes :
  (Workloads.t * Mac_vpo.Pipeline.level * Workloads.outcome) list ->
  cell list

val full_cells :
  ?jobs:int ->
  ?engine:Mac_sim.Interp.engine ->
  size:int ->
  unit ->
  cell list

val run :
  ?jobs:int ->
  ?engine:Mac_sim.Interp.engine ->
  size:int ->
  ?full_size:int ->
  unit ->
  cell list
(** All sections: TAB2 + TAB3 + TAB4 + SCHED at [size], FULL at
    [full_size] (default 64, the bench harness's fixed FULL size). *)

val cells_of_rows :
  section:string ->
  machine:Mac_machine.Machine.t ->
  Tables.row list ->
  cell list
(** Convert already-computed table rows (e.g. the ones just printed) so
    the JSON reuses their outcomes instead of re-simulating. *)

val cells_to_json : ?timing:bool -> cell list -> string
(** The cells array alone. [~timing:false] (default [true]) omits the
    per-cell [compile_seconds]/[sim_seconds] measurements — what the
    jobs-count determinism test compares. *)

val to_json :
  size:int ->
  jobs_requested:int ->
  jobs_effective:int ->
  engine:string ->
  wall_seconds:float ->
  ?speedup:speedup ->
  cell list ->
  string
(** The full [BENCH_sim.json] document (schema [mac-bench-sim/7]):
    headed by the build's {!Mac_vpo.Version.compiler_fingerprint},
    document-level [compile_seconds] and [sim_seconds] (totals over
    cells) with [pass_seconds], [tvalid_seconds] and
    [sim_phase_seconds] breakdowns aggregated across the sweep, plus
    per-cell [compile_seconds]/[tvalid_seconds]/[sim_seconds].
    [jobs_requested] is what the caller asked for, [jobs_effective]
    what {!Mac_parallel.Pool.effective_jobs} actually used; [engine] is
    the {!Mac_sim.Interp.engine_name} of the engine the cells ran on.
    [wall_seconds] (and the optional [speedup] block) are measurements,
    deliberately outside the timing-free {!cells_to_json} form so cell
    content stays comparable across runs. *)

val validate : string -> (int, string) result
(** [validate text] re-parses an emitted document and checks the v7
    schema: the [schema] field is [mac-bench-sim/7] (v6 and earlier
    documents are rejected), [compiler_fingerprint] is a non-empty
    string, [engine] names an {!Mac_sim.Interp.engine}, the
    document-level [compile_seconds], [sim_seconds],
    [jobs_requested] and [jobs_effective] are positive numbers,
    [sim_phase_seconds] carries numeric decode/compile/execute entries,
    [tvalid_seconds] is a non-empty all-numeric object (the FULL
    section compiles at [Vfull]), every cell carries numeric
    [guards_emitted]/[guards_elided] and
    [sched_mii]/[sched_ii]/[pipelined] counters, and every Table II cell
    (each Table I benchmark at O1..O4 on the Alpha) plus the SCHED
    image_add16 column is present; returns the total cell count. *)
