(** Reproduction of the paper's evaluation tables.

    For each machine, every Table I benchmark is simulated at the paper's
    four configurations:

    - column 2 (["cc -O"]): our pipeline at O1 — classic optimizations,
      loop left rolled (stands in for the native compiler baseline);
    - column 3 (["vpcc/vpo -O"]): O2 — same plus unrolling by the widening
      factor, no coalescing (the paper unrolled the baseline to isolate
      coalescing);
    - column 4 (coalesce loads): O3;
    - column 5 (coalesce loads and stores): O4;
    - column 6 (percent savings): [(col3 - col5) / col3 * 100], which
      reproduces the printed Table II numbers (e.g. image add:
      [(17.71 - 10.44) / 17.71 = 41.05%]).

    The paper timed wall-clock seconds over ten runs, dropping the two
    highest and two lowest; the simulator is deterministic, so a single
    run yields the same statistic. *)

type row = {
  bench : Workloads.t;
  rolled : int;  (** O1 cycles *)
  unrolled : int;  (** O2 cycles — the baseline for savings *)
  loads : int;  (** O3 cycles *)
  loads_stores : int;  (** O4 cycles *)
  verified : bool;  (** every configuration produced correct output *)
  outcomes : (Mac_vpo.Pipeline.level * Workloads.outcome) list;
      (** the full per-level outcomes the summary columns were read off *)
}

val coalesce_options : respect_profitability:bool -> Mac_core.Coalesce.options
(** The tables' coalescing options. Forced mode
    ([~respect_profitability:false]) reproduces the paper's measured
    columns: the transformation applies wherever it is applicable, with
    both the profitability gate and the I-cache unrolling guard off. *)

val cell :
  size:int ->
  respect_profitability:bool ->
  ?assume_layout:bool ->
  ?profit_mode:Mac_core.Profitability.mode ->
  ?pipeline_sched:bool ->
  machine:Mac_machine.Machine.t ->
  Workloads.t ->
  Mac_vpo.Pipeline.level ->
  Workloads.outcome
(** One benchmark at one level, compiled with {!coalesce_options}. *)

val table :
  ?size:int ->
  ?respect_profitability:bool ->
  ?assume_layout:bool ->
  ?profit_mode:Mac_core.Profitability.mode ->
  ?pipeline_sched:bool ->
  ?jobs:int ->
  machine:Mac_machine.Machine.t ->
  unit ->
  row list
(** Every benchmark at O1..O4 (size 100, forced mode by default). The
    cells fan over [?jobs] domains (default {!Mac_parallel.Pool.jobs});
    the rows come back in canonical order, so the table is identical to
    a serial run. *)

val full :
  ?jobs:int ->
  size:int ->
  unit ->
  (Workloads.t * Mac_vpo.Pipeline.level * Workloads.outcome) list
(** The FULL table: Table II under the complete vpo-style pipeline
    (strength reduction, list scheduling and 32-register allocation) at
    O2..O4 on the Alpha, compiled at [Vfull] so every cell is also
    translation-validated, in canonical benchmark x level order. *)

val pp_table :
  Format.formatter -> Mac_machine.Machine.t -> row list -> unit
(** The rows with their savings columns: [(O2 - O3) / O2] and
    [(O2 - O4) / O2], percent. *)
