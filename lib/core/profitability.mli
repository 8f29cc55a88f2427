(** Profitability analysis (paper Fig. 3).

    The candidate (coalesced) loop body is kept only if it is statically
    cheaper than the original. Both versions are first legalized for the
    target — essential on the Alpha, where the "cheap" narrow references of
    the original body actually cost an unaligned quadword load plus an
    extract each — and then priced, either by latency-aware list
    scheduling (the paper's method), by a naive in-order cost sum (the
    [`CostSum] ablation of DESIGN.md decision 2), or by the schedule
    {e plus} the reuse model's predicted steady-state d-cache miss
    cycles ([Estimate], DESIGN.md §13) — the sharper oracle for machines
    whose schedule-only savings are negative but whose cache behaviour
    still differs.

    The fourth mode, [Pipelined], prices each version by its
    steady-state initiation interval under software pipelining
    ({!Mac_opt.Pipeline_sched.steady_ii}): the cycles one iteration
    costs once the [-Osched] pass has overlapped the body's long-latency
    chains across iterations, plus the back branch's issue cost. It is
    never worse than the [Schedule] price of the same body, and is the
    honest oracle when the pipeliner runs — a one-shot block schedule
    cannot overlap a coalesced body's insert/extract chains across
    iterations, which is exactly why the mc88100/mc68030 O3/O4 cells
    report negative savings under [Schedule]. *)

open Mac_rtl

type mode = Schedule | CostSum | Estimate | Pipelined

type decision = {
  before_cycles : int;
  after_cycles : int;
  profitable : bool;
}

val price :
  Func.t -> machine:Mac_machine.Machine.t -> mode:mode -> Rtl.inst list -> int
(** Legalize a loop body for [machine] and price it under [mode].
    Legalization mints its temporaries in [f], so the order of the calls
    fixes the register numbers of the output. *)

val analyze :
  Func.t ->
  machine:Mac_machine.Machine.t ->
  mode:mode ->
  before:int Lazy.t ->
  after:Rtl.inst list ->
  decision
(** Force [before], the original body's {!price}, then price [after],
    the candidate body. Every variant of a loop shares one [before], so
    the original body is priced once per loop, inside its first
    variant's decision. *)

val pp_decision : Format.formatter -> decision -> unit
