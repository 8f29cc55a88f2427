(* The benchmark's inputs. Everything a run feeds the system is a
   function of the workload and the seed: the order of the sweep cells
   and of the compile grid in each repetition, and every request the
   serve clients send. [dump] prints a fixed prefix of those inputs and
   its digest, so a claim can name exactly what it measured. *)

module W = Mac_workloads.Workloads
module Machine = Mac_machine.Machine
module Pipeline = Mac_vpo.Pipeline
module Protocol = Mac_serve.Protocol

type workload = Paper_sweep | Compile_grid | Serve_mixed | Serve_churn

let workloads =
  [
    ("paper-sweep", Paper_sweep);
    ("compile-grid", Compile_grid);
    ("serve-mixed", Serve_mixed);
    ("serve-churn", Serve_churn);
  ]

let workload_of_string s = List.assoc_opt s workloads

let workload_name w =
  fst (List.find (fun (_, w') -> w' = w) workloads)

let machines = Machine.[ alpha; mc88100; mc68030 ]
let levels = Pipeline.[ O1; O2; O3; O4 ]

(* Table I plus the Fig. 1 dot product. *)
let programs = W.dotproduct :: W.all

(* Independent streams of one seed: [tag] separates the repetitions of
   a grid and the clients of a serve run. *)
let rng ~seed tag = Random.State.make [| seed; tag |]

let shuffled st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- paper-sweep -------------------------------------------------- *)

type cell = { bench : W.t; machine : Machine.t; level : Pipeline.level }

(* The paper's image edge length is 500; 200 keeps one sweep near two
   seconds on one 2 GHz Xeon core. *)
let sweep_size = 200

(* TAB2, TAB3 and TAB4: 7 programs x O1-O4 x 3 machines. *)
let sweep_cells =
  Array.of_list
    (List.concat_map
       (fun machine ->
         List.concat_map
           (fun bench -> List.map (fun level -> { bench; machine; level }) levels)
           W.all)
       machines)

let cell_name c =
  Printf.sprintf "%s/%s/%s" c.machine.Machine.name c.bench.W.name
    (Pipeline.level_to_string c.level)

let sweep_order ~seed rep = shuffled (rng ~seed rep) sweep_cells

(* --- compile-grid ------------------------------------------------- *)

(* [O4_full] is the only configuration that runs strength reduction,
   list scheduling, software pipelining and register allocation, the
   passes the validator still takes on trust. *)
type config = Level of Pipeline.level | O4_full

type compile = { program : W.t; cmachine : Machine.t; config : config }

let config_name = function
  | Level l -> Pipeline.level_to_string l
  | O4_full -> "O4-full"

let compile_name c =
  Printf.sprintf "%s/%s/%s" c.cmachine.Machine.name c.program.W.name
    (config_name c.config)

(* Every configuration at Vfull, the mccd default. *)
let pipeline_config c =
  match c.config with
  | Level level -> Pipeline.config ~level ~verify:Pipeline.Vfull c.cmachine
  | O4_full ->
    Pipeline.config ~level:Pipeline.O4 ~verify:Pipeline.Vfull
      ~strength_reduce:true ~schedule:true ~pipeline_sched:true ~regalloc:32
      c.cmachine

(* Register allocation of convolution for the 88100 spills a 64-bit
   value with a store the machine cannot execute, and Vfull rejects the
   compile. A workload must not fail, so this one cell is left out
   until the allocator is fixed. *)
let known_failure c =
  c.program.W.name = "convolution"
  && c.cmachine.Machine.name = "mc88100"
  && c.config = O4_full

let grid =
  Array.of_list
    (List.filter
       (fun c -> not (known_failure c))
       (List.concat_map
          (fun program ->
            List.concat_map
              (fun cmachine ->
                List.map
                  (fun config -> { program; cmachine; config })
                  (List.map (fun l -> Level l) levels @ [ O4_full ]))
              machines)
          programs))

let grid_order ~seed round = shuffled (rng ~seed round) grid

(* --- serve-mixed and serve-churn ---------------------------------- *)

type request = {
  req : Protocol.request;
  hot : int option;  (** index into {!hot}; [None] for a novel request *)
  label : string;
}

(* The 96 (program, machine, level) combinations: 8 programs x 3
   machines x O1-O4. *)
let combos =
  Array.of_list
    (List.concat_map
       (fun p ->
         List.concat_map
           (fun m -> List.map (fun level -> (p, m, level)) levels)
           machines)
       programs)

(* The keys set-up warms, one per combination, at the mccd default
   Vfull. *)
let hot =
  Array.map
    (fun ((p : W.t), (m : Machine.t), level) ->
      Protocol.request ~level ~verify:Pipeline.Vfull ~machine:m.name
        (`Bench p.name))
    combos

let request_name (r : Protocol.request) =
  let src = match r.src with `Bench b -> b | `Source _ -> "source" in
  Printf.sprintf "%s/%s/%s" r.machine src (Pipeline.level_to_string r.level)

let hot_request i =
  { req = hot.(i); hot = Some i; label = "hot " ^ request_name hot.(i) }

(* A novel request is a paper program with one unique function
   appended, so its key is new and the daemon must compile it. *)
let novel ~client k ~addend ((p : W.t), (m : Machine.t), level) =
  let salt = Printf.sprintf "salt_%d_%d" client k in
  {
    req =
      Protocol.request ~level ~verify:Pipeline.Vfull ~machine:m.name
        (`Source
          (Printf.sprintf "%s\nint %s(int x) { return x + %d; }\n" p.source
             salt addend));
    hot = None;
    label =
      Printf.sprintf "novel %s+%d %s/%s/%s" salt addend m.name p.name
        (Pipeline.level_to_string level);
  }

(* serve-mixed sends one novel request in every block of five, at a
   seeded place in the block, and its novel requests walk the 96
   combinations in seeded orders; so every run asks the same share of
   misses of the same programs, and seeds differ only in order.

   One in five rather than three in ten: each miss holds up the one
   request the other client has in flight, so at three in ten only
   about half of all requests are unblocked hits, and the median falls
   between the hit and the miss latencies and reads 0.5 to 12 ms from
   run to run. At one in five the median request is an unblocked hit. *)
let block = 5

(* The request stream of one closed-loop client: [next ()] is its next
   request. Client [c] of seed [s] always sends the same sequence. *)
let stream ~seed ~client w =
  let st = rng ~seed (1_000_000 + client) in
  let k = ref 0 and novel_at = ref 0 in
  let order = ref [||] and novels = ref 0 in
  fun () ->
    let i = !k in
    incr k;
    match w with
    | Serve_mixed ->
      if i mod block = 0 then novel_at := Random.State.int st block;
      if i mod block <> !novel_at then
        hot_request (Random.State.int st (Array.length hot))
      else begin
        if !novels mod Array.length combos = 0 then
          order := shuffled st combos;
        let combo = !order.(!novels mod Array.length combos) in
        incr novels;
        novel ~client i ~addend:(Random.State.int st 1000) combo
      end
    | Serve_churn -> hot_request (Random.State.int st (Array.length hot))
    | Paper_sweep | Compile_grid -> invalid_arg "Gen.stream"

(* --- dump --------------------------------------------------------- *)

(* Each prefix covers more than a 20-second run consumes. *)
let dump_reps = 20
let dump_rounds = 40
let dump_requests = 10_000

let dump ~seed w =
  match w with
  | Paper_sweep ->
    List.init dump_reps (fun r ->
        Printf.sprintf "rep %d: %s" r
          (String.concat " "
             (Array.to_list (Array.map cell_name (sweep_order ~seed r)))))
  | Compile_grid ->
    List.init dump_rounds (fun r ->
        Printf.sprintf "round %d: %s" r
          (String.concat " "
             (Array.to_list (Array.map compile_name (grid_order ~seed r)))))
  | Serve_mixed | Serve_churn ->
    List.concat_map
      (fun client ->
        let next = stream ~seed ~client w in
        List.init dump_requests (fun k ->
            Printf.sprintf "client %d #%d: %s" client k (next ()).label))
      [ 0; 1 ]

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
