(** The gen/kill dataflow solver behind {!Liveness}, {!Reaching},
    {!Copies} and {!Avail}: one packed-bitvector engine over
    {!Mac_cfg.Cfg} block graphs. The set/map fixpoints it is pinned
    against live in the tests as an oracle. *)

type direction = Forward | Backward

type 'a solution = { inb : 'a array; outb : 'a array }
(** Per-block dataflow values: [inb.(b)] is the value at block [b]'s entry,
    [outb.(b)] at its exit (in execution order, regardless of analysis
    direction). *)

type meet_op = Union | Inter

val solve_bits :
  ?universe:Bitv.t ->
  Mac_cfg.Cfg.t ->
  direction:direction ->
  meet:meet_op ->
  gen:Bitv.t array ->
  kill:Bitv.t array ->
  boundary:Bitv.t ->
  Bitv.t option solution
(** Gen/kill solver over packed bitvectors ([out = gen ∪ (in − kill)] per
    block in flow orientation), sweeping in reverse postorder and
    re-transferring a block only when one of its flow predecessors'
    values changed. All vectors must share [boundary]'s length. The
    boundary value flows into the entry block (forward) or every exit
    block (backward). In the result, [None] is the must-analysis Top
    ("unreached"); [Union] problems always yield [Some]. With
    [~universe] (an [Inter] problem's set of all facts), every block
    starts at [universe] instead of Top and transfers it, so a block no
    path from the boundary reaches gets the greatest fixed point and
    the result is always [Some]. The result is the fixed point that
    round-robin iteration on the corresponding set lattice reaches from
    the same initial values. *)
