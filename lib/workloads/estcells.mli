(** The estimation sweep.

    Every paper-table cell (TAB2/TAB3/TAB4 benchmarks at O0/O2/O4, the
    forced-coalescing configuration of {!Tables}) is predicted by the
    static estimator ({!Workloads.estimate}); {!run} additionally
    simulates each cell and records the per-cell relative error, which
    the test suite holds against the documented {!tolerance}.
    {!run_triage} is the payoff mode: rank the (section, benchmark)
    pairs by {e predicted} coalescing savings, simulate only the
    interesting top half, and report how well the predicted order agreed
    with the simulated one. *)

type ecell = {
  section : string;
  bench : string;
  machine : string;
  level : string;  (** O0 | O2 | O4 *)
  pred_cycles : int;
  pred_insts : int;
  pred_loads : int;
  pred_stores : int;
  pred_misses : int;  (** predicted d-cache misses *)
  pred_approx : bool;
      (** some construct was approximated (unknown trip count,
          unresolved call, non-affine stream) *)
  est_seconds : float;
  sim_cycles : int option;  (** simulator ground truth, when run *)
  sim_misses : int option;
}

val levels : Mac_vpo.Pipeline.level list
val sections : (string * Mac_machine.Machine.t) list

val tolerance : float
(** The documented accuracy contract: the median relative cycle error
    over all simulated cells may not exceed this (DESIGN.md §13).
    The test suite fails a sweep that does. *)

val cycle_err : ecell -> float option
(** [|pred - sim| / sim], when the cell was simulated. *)

val miss_err : ecell -> float option

val median_cycle_err : ecell list -> float

val run :
  ?jobs:int -> ?engine:Mac_sim.Interp.engine -> size:int -> unit ->
  ecell list
(** Estimate {e and} simulate every grid cell (simulations fan over
    domains like the simulation sweep). *)

(** {1 Triage} *)

type ranked = {
  r_section : string;
  r_bench : string;
  r_pred_savings : float;
      (** predicted O2-to-O4 cycle savings, percent *)
  r_sim_savings : float option;
      (** simulated savings; [None] for skipped (predicted-boring)
          entries *)
}

type triage = {
  ranking : ranked list;  (** descending predicted savings *)
  simulated : int;
  skipped : int;
  agreement : float;
      (** concordant-pair fraction (ties count half) between predicted
          and simulated savings over the simulated subset; 1.0 means
          the orders agree exactly *)
  t_est_seconds : float;
  t_sim_seconds : float;
}

val run_triage :
  ?jobs:int -> ?engine:Mac_sim.Interp.engine -> size:int -> unit -> triage

val concordance : (float * float) list -> float
(** Exposed for the test suite. *)
