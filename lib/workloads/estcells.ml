(* The estimation sweep: every paper-table cell predicted by the static
   estimator, optionally pinned against the simulator, plus the triage
   mode that uses the predictions to decide which cells are worth
   simulating at all. *)

module Machine = Mac_machine.Machine
module Pipeline = Mac_vpo.Pipeline
module Reuse = Mac_dataflow.Reuse

type ecell = {
  section : string;
  bench : string;
  machine : string;
  level : string;
  pred_cycles : int;
  pred_insts : int;
  pred_loads : int;
  pred_stores : int;
  pred_misses : int;
  pred_approx : bool;
  est_seconds : float;
  sim_cycles : int option;
  sim_misses : int option;
}

(* Acceptance grid: O0 (nothing moved), O2 (unrolled baseline) and O4
   (loads+stores coalesced) on each paper machine. O2/O4 pairs also feed
   the triage ranking. *)
let levels = Pipeline.[ O0; O2; O4 ]

let sections =
  [ ("TAB2", Machine.alpha); ("TAB3", Machine.mc88100);
    ("TAB4", Machine.mc68030) ]

(* The paper tables' forced-coalescing configuration, so the estimates
   describe the code the tables simulate. *)
let coalesce = Tables.coalesce_options ~respect_profitability:false

let rel_err ~pred ~sim =
  if sim = 0 then if pred = 0 then 0.0 else 1.0
  else
    Float.abs (float_of_int (pred - sim)) /. float_of_int sim

let cycle_err c =
  Option.map (fun sim -> rel_err ~pred:c.pred_cycles ~sim) c.sim_cycles

let miss_err c =
  Option.map (fun sim -> rel_err ~pred:c.pred_misses ~sim) c.sim_misses

let predict ~section ~(machine : Machine.t) ~size (b : Workloads.t) level =
  let p =
    Workloads.estimate ~size ~coalesce ~assume_layout:true ~machine ~level b
  in
  let s = p.Workloads.summary in
  {
    section;
    bench = b.Workloads.name;
    machine = machine.Machine.name;
    level = Pipeline.level_to_string level;
    pred_cycles = s.Reuse.s_cycles;
    pred_insts = s.Reuse.s_insts;
    pred_loads = s.Reuse.s_loads;
    pred_stores = s.Reuse.s_stores;
    pred_misses = s.Reuse.s_misses;
    pred_approx = s.Reuse.s_approx;
    est_seconds = p.Workloads.est_seconds;
    sim_cycles = None;
    sim_misses = None;
  }

let grid =
  List.concat_map
    (fun (section, machine) ->
      List.concat_map
        (fun (b : Workloads.t) ->
          List.map (fun level -> (section, machine, b, level)) levels)
        Workloads.all)
    sections

let simulate ~(machine : Machine.t) ~size (b : Workloads.t) level c =
  let o =
    Workloads.run ~size ~coalesce ~assume_layout:true ~machine ~level b
  in
  {
    c with
    sim_cycles = Some o.Workloads.metrics.Mac_sim.Interp.cycles;
    sim_misses = Some o.Workloads.metrics.Mac_sim.Interp.dcache_misses;
  }

let predictions ~size () =
  List.map
    (fun (section, machine, b, level) ->
      predict ~section ~machine ~size b level)
    grid

(* Every cell estimated AND simulated — what the accuracy contract is
   checked on. The simulations fan over domains; the estimates are cheap
   enough to run serially. *)
let run ?jobs ~size () =
  let preds = predictions ~size () in
  let sims =
    Mac_parallel.Pool.map ?jobs
      (fun ((_, machine, b, level), c) ->
        simulate ~machine ~size b level c)
      (List.combine grid preds)
  in
  sims

(* --- triage --------------------------------------------------------- *)

(* Predicted payoff of coalescing one (section, bench): relative cycle
   savings of the predicted O4 cell against the predicted O2 cell. *)
type ranked = {
  r_section : string;
  r_bench : string;
  r_pred_savings : float;
  r_sim_savings : float option;
}

type triage = {
  ranking : ranked list;  (** descending predicted savings *)
  simulated : int;  (** top-half cells that were simulated *)
  skipped : int;  (** predicted-boring cells never simulated *)
  agreement : float;
      (** pairwise order concordance between predicted and simulated
          savings over the simulated subset *)
  t_est_seconds : float;
  t_sim_seconds : float;
}

let pred_savings cells ~section ~bench =
  let cycles level =
    List.find_map
      (fun c ->
        if
          String.equal c.section section
          && String.equal c.bench bench
          && String.equal c.level (Pipeline.level_to_string level)
        then Some c.pred_cycles
        else None)
      cells
  in
  match (cycles Pipeline.O2, cycles Pipeline.O4) with
  | Some o2, Some o4 when o2 > 0 ->
    float_of_int (o2 - o4) /. float_of_int o2 *. 100.0
  | _ -> 0.0

(* Concordant-pair fraction (Kendall-style, ties count as half) between
   two savings orderings. *)
let concordance pairs =
  let n = List.length pairs in
  if n < 2 then 1.0
  else begin
    let num = ref 0.0 and den = ref 0 in
    List.iteri
      (fun i (p1, s1) ->
        List.iteri
          (fun j (p2, s2) ->
            if j > i then begin
              incr den;
              let cp = compare (p1 : float) p2
              and cs = compare (s1 : float) s2 in
              if cp = 0 || cs = 0 then num := !num +. 0.5
              else if (cp > 0) = (cs > 0) then num := !num +. 1.0
            end)
          pairs)
      pairs;
    !num /. float_of_int !den
  end

(* Rank every (section, bench) by predicted savings, simulate only the
   top half (both its O2 and O4 cells), and report how well the
   predicted order agrees with the simulated one on that subset. *)
let run_triage ?jobs ~size () =
  let preds = predictions ~size () in
  let t_est_seconds =
    List.fold_left (fun acc c -> acc +. c.est_seconds) 0.0 preds
  in
  let keys =
    List.concat_map
      (fun (section, machine) ->
        List.map
          (fun (b : Workloads.t) -> (section, machine, b))
          Workloads.all)
      sections
  in
  let ranked =
    keys
    |> List.map (fun (section, _, (b : Workloads.t)) ->
           ( (section, b),
             pred_savings preds ~section ~bench:b.Workloads.name ))
    |> List.sort (fun (_, a) (_, b) -> compare (b : float) a)
  in
  let top = (List.length ranked + 1) / 2 in
  let interesting = List.filteri (fun i _ -> i < top) ranked in
  let boring = List.filteri (fun i _ -> i >= top) ranked in
  (* simulate the interesting half: O2 and O4 per key *)
  let jobs_cells =
    List.concat_map
      (fun (((section, (b : Workloads.t)), pred) : (string * Workloads.t) * float)
           ->
        let machine = List.assoc section sections in
        List.map
          (fun level -> (section, b, machine, level, pred))
          Pipeline.[ O2; O4 ])
      interesting
  in
  let outs =
    Mac_parallel.Pool.map ?jobs
      (fun (_, (b : Workloads.t), machine, level, _) ->
        Workloads.run ~size ~coalesce ~assume_layout:true ~machine ~level b)
      jobs_cells
  in
  let t_sim_seconds =
    List.fold_left
      (fun acc (o : Workloads.outcome) -> acc +. o.Workloads.sim_seconds)
      0.0 outs
  in
  let sim_cycles =
    List.map2
      (fun (section, (b : Workloads.t), _, level, _) (o : Workloads.outcome)
           ->
        ((section, b.Workloads.name, level), o.Workloads.metrics.cycles))
      jobs_cells outs
  in
  let sim_savings_for section bench =
    match
      ( List.assoc_opt (section, bench, Pipeline.O2) sim_cycles,
        List.assoc_opt (section, bench, Pipeline.O4) sim_cycles )
    with
    | Some o2, Some o4 when o2 > 0 ->
      Some (float_of_int (o2 - o4) /. float_of_int o2 *. 100.0)
    | _ -> None
  in
  let ranking =
    List.map
      (fun ((section, (b : Workloads.t)), pred) ->
        {
          r_section = section;
          r_bench = b.Workloads.name;
          r_pred_savings = pred;
          r_sim_savings = sim_savings_for section b.Workloads.name;
        })
      (interesting @ boring)
  in
  let pairs =
    List.filter_map
      (fun r ->
        Option.map (fun s -> (r.r_pred_savings, s)) r.r_sim_savings)
      ranking
  in
  {
    ranking;
    simulated = List.length interesting;
    skipped = List.length boring;
    agreement = concordance pairs;
    t_est_seconds;
    t_sim_seconds;
  }

(* --- accuracy contract ----------------------------------------------- *)

(* Documented accuracy contract (DESIGN.md §13): median relative cycle
   error of the estimate against the simulator, over all cells that were
   simulated. The test suite fails a grid that exceeds it. *)
let tolerance = 0.25

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let a = List.nth sorted ((n - 1) / 2) and b = List.nth sorted (n / 2) in
    (a +. b) /. 2.0

let median_cycle_err cells = median (List.filter_map cycle_err cells)
