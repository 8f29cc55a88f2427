(* The triage mode: every paper-table cell predicted by the static
   estimator, and the predictions used to decide which cells are worth
   simulating at all. *)

module Machine = Mac_machine.Machine
module Pipeline = Mac_vpo.Pipeline
module Reuse = Mac_dataflow.Reuse

(* One paper-table cell as the estimator predicts it. *)
type ecell = {
  section : string;
  bench : string;
  level : string;
  pred_cycles : int;
  est_seconds : float;
}

(* Acceptance grid: O0 (nothing moved), O2 (unrolled baseline) and O4
   (loads+stores coalesced) on each paper machine. O2/O4 pairs feed the
   triage ranking. *)
let levels = Pipeline.[ O0; O2; O4 ]

let sections =
  [ ("TAB2", Machine.alpha); ("TAB3", Machine.mc88100);
    ("TAB4", Machine.mc68030) ]

(* The paper tables' forced-coalescing configuration, so the estimates
   describe the code the tables simulate. *)
let coalesce = Tables.coalesce_options ~respect_profitability:false

let predict ~section ~(machine : Machine.t) ~size (b : Workloads.t) level =
  let p =
    Workloads.estimate ~size ~coalesce ~assume_layout:true ~machine ~level b
  in
  {
    section;
    bench = b.Workloads.name;
    level = Pipeline.level_to_string level;
    pred_cycles = p.Workloads.summary.Reuse.s_cycles;
    est_seconds = p.Workloads.est_seconds;
  }

let predictions ~size () =
  List.concat_map
    (fun (section, machine) ->
      List.concat_map
        (fun (b : Workloads.t) ->
          List.map
            (fun level -> predict ~section ~machine ~size b level)
            levels)
        Workloads.all)
    sections

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
