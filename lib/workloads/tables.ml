(* The paper's evaluation tables: each Table I benchmark simulated at the
   four configurations the interface lists, one row per benchmark. *)

module Machine = Mac_machine.Machine

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

let savings ~baseline v =
  if baseline = 0 then 0.0
  else float_of_int (baseline - v) /. float_of_int baseline *. 100.0

let savings_loads r = savings ~baseline:r.unrolled r.loads
let savings_all r = savings ~baseline:r.unrolled r.loads_stores

let levels = Mac_vpo.Pipeline.[ O1; O2; O3; O4 ]

(* Forced mode reproduces the paper's measured columns: the
   transformation is applied wherever it is applicable, with both the
   profitability gate and the I-cache unrolling guard off (the paper
   measured *slower* code on the 68030, so its numbers cannot have been
   gated). *)
let coalesce_options ~respect_profitability =
  {
    Mac_core.Coalesce.default with
    respect_profitability;
    icache_guard = respect_profitability;
  }

let cell ~size ~respect_profitability ?(assume_layout = false)
    ?profit_mode ?pipeline_sched ~machine bench level =
  let coalesce = coalesce_options ~respect_profitability in
  let coalesce =
    match profit_mode with
    | None -> coalesce
    | Some m -> { coalesce with Mac_core.Coalesce.profit_mode = m }
  in
  Workloads.run ~size ~coalesce ~assume_layout ?pipeline_sched
    ~machine ~level bench

let row_of_outcomes bench outcomes =
  let get l = (List.assoc l outcomes : Workloads.outcome) in
  let cycles l = (get l).Workloads.metrics.cycles in
  {
    bench;
    rolled = cycles Mac_vpo.Pipeline.O1;
    unrolled = cycles Mac_vpo.Pipeline.O2;
    loads = cycles Mac_vpo.Pipeline.O3;
    loads_stores = cycles Mac_vpo.Pipeline.O4;
    verified = List.for_all (fun (_, o) -> o.Workloads.correct) outcomes;
    outcomes;
  }

(* The table fans its benchmark x level cells over domains ([?jobs],
   default {!Mac_parallel.Pool.jobs}); results come back in canonical
   order, so the rendered table is identical to a serial run. *)
let table ?(size = 100) ?(respect_profitability = false) ?assume_layout
    ?profit_mode ?pipeline_sched ?jobs ~machine () =
  let cells =
    List.concat_map
      (fun b -> List.map (fun l -> (b, l)) levels)
      Workloads.all
  in
  let outcomes =
    Mac_parallel.Pool.map ?jobs
      (fun (b, l) ->
        cell ~size ~respect_profitability ?assume_layout ?profit_mode
          ?pipeline_sched ~machine b l)
      cells
  in
  let rec chunk rows cells outs =
    match (cells, outs) with
    | [], [] -> List.rev rows
    | _ ->
      let rec take k cs os acc =
        if k = 0 then (List.rev acc, cs, os)
        else
          match (cs, os) with
          | (_, l) :: cs', o :: os' -> take (k - 1) cs' os' ((l, o) :: acc)
          | _ -> assert false
      in
      let taken, cells', outs' = take (List.length levels) cells outs [] in
      let bench = match cells with (b, _) :: _ -> b | [] -> assert false in
      chunk (row_of_outcomes bench taken :: rows) cells' outs'
  in
  chunk [] cells outcomes

(* The FULL table: Table II under the complete vpo-style pipeline
   (strength reduction, list scheduling and 32-register allocation) at
   O2..O4 on the Alpha, compiled at Vfull so every cell is also
   translation-validated. Outcomes come back in canonical
   benchmark x level order, whatever [?jobs]. *)
let full ?jobs ~size () =
  let cells =
    List.concat_map
      (fun b -> List.map (fun l -> (b, l)) Mac_vpo.Pipeline.[ O2; O3; O4 ])
      Workloads.all
  in
  let outs =
    Mac_parallel.Pool.map ?jobs
      (fun (b, level) ->
        Workloads.run ~size ~coalesce:Mac_core.Coalesce.default
          ~strength_reduce:true ~schedule:true ~regalloc:32
          ~assume_layout:true ~verify:Mac_vpo.Pipeline.Vfull
          ~machine:Machine.alpha ~level b)
      cells
  in
  List.map2 (fun (b, l) o -> (b, l, o)) cells outs

let pp_row ppf r =
  Format.fprintf ppf "| %-12s | %10d | %10d | %10d | %10d | %6.2f | %6.2f | %s"
    r.bench.Workloads.name r.rolled r.unrolled r.loads r.loads_stores
    (savings_loads r) (savings_all r)
    (if r.verified then "ok" else "WRONG OUTPUT")

let pp_table ppf (machine : Machine.t) rows =
  Format.fprintf ppf
    "@[<v>%s (cycles; savings vs unrolled baseline, percent)@,\
     | %-12s | %10s | %10s | %10s | %10s | %6s | %6s |@,"
    machine.name "program" "O1 rolled" "O2 unroll" "O3 loads" "O4 ld+st"
    "sv-ld" "sv-all";
  List.iter (fun r -> Format.fprintf ppf "%a@," pp_row r) rows;
  Format.fprintf ppf "@]"
