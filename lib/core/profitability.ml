module Legalize = Mac_opt.Legalize
module Sched = Mac_opt.Sched

type mode = Schedule | CostSum | Estimate | Pipelined

type decision = {
  before_cycles : int;
  after_cycles : int;
  profitable : bool;
}

let price f ~machine ~mode body =
  let body = Legalize.expand_body f machine body in
  match mode with
  | Schedule -> Sched.block_cycles machine body
  | CostSum -> Sched.sequential_cycles machine body
  | Estimate ->
    (* schedule latency plus the predicted steady-state d-cache miss
       cycles, both over a fixed horizon of iterations so the cache
       term (a rate, misses per [Estimate.horizon] iterations) and
       the per-iteration schedule term share units *)
    (Sched.block_cycles machine body * Estimate.horizon)
    + Estimate.body_miss_cycles ~machine body
  | Pipelined ->
    (* steady-state initiation interval under software pipelining:
       what each loop version costs per iteration once the [-Osched]
       pass has overlapped its insert/extract chains across
       iterations — never worse than the [Schedule] price *)
    Mac_opt.Pipeline_sched.steady_ii machine body

let analyze f ~machine ~mode ~before ~after =
  let before_cycles = Lazy.force before in
  let after_cycles = price f ~machine ~mode after in
  { before_cycles; after_cycles; profitable = after_cycles < before_cycles }

let pp_decision ppf d =
  Format.fprintf ppf "before=%d after=%d -> %s" d.before_cycles
    d.after_cycles
    (if d.profitable then "profitable" else "not profitable")
