(** The estimation triage.

    Every paper-table cell (TAB2/TAB3/TAB4 benchmarks at O0/O2/O4, the
    forced-coalescing configuration of {!Tables}) is predicted by the
    static estimator ({!Workloads.estimate}). {!run_triage} ranks the
    (section, benchmark) pairs by {e predicted} coalescing savings,
    simulates only the interesting top half, and reports how well the
    predicted order agreed with the simulated one. The estimator's
    accuracy contract against the simulator is held by the test suite
    (DESIGN.md §13). *)

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

val run_triage : ?jobs:int -> size:int -> unit -> triage

val concordance : (float * float) list -> float
(** The concordant-pair fraction of (predicted, simulated) pairs, ties
    counting half: {!run_triage}'s [agreement]. *)
