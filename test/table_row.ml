(* One row of the paper's tables, built cell by cell through
   [Tables.cell] at O1..O4 the way [Tables.table] builds each of its
   rows, and the row's load+store savings over the unrolled baseline. *)

module Tables = Mac_workloads.Tables
module W = Mac_workloads.Workloads
module Pipeline = Mac_vpo.Pipeline

let row ?(respect_profitability = false) ?profit_mode ?pipeline_sched ~size
    ~machine bench =
  let outcomes =
    List.map
      (fun l ->
        ( l,
          Tables.cell ~size ~respect_profitability ?profit_mode
            ?pipeline_sched ~machine bench l ))
      Pipeline.[ O1; O2; O3; O4 ]
  in
  let cycles l = (List.assoc l outcomes).W.metrics.cycles in
  {
    Tables.bench;
    rolled = cycles O1;
    unrolled = cycles O2;
    loads = cycles O3;
    loads_stores = cycles O4;
    verified = List.for_all (fun (_, (o : W.outcome)) -> o.correct) outcomes;
    outcomes;
  }

(* [(O2 - O4) / O2], percent: the tables' last column. *)
let savings_all (r : Tables.row) =
  float_of_int (r.unrolled - r.loads_stores) /. float_of_int r.unrolled
  *. 100.0
