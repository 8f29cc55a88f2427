open Mac_rtl
module Machine = Mac_machine.Machine

exception Trap = Jit.Trap
(* The jit owns the exception so its compiled closures can raise
   it without a dependency cycle; rebinding keeps the runtime identity
   (and every existing [Interp.Trap] handler) intact. *)

type program = Func.t list

type metrics = {
  insts : int;
  cycles : int;
  loads : int;
  stores : int;
  dcache_hits : int;
  dcache_misses : int;
  icache_misses : int;
  label_counts : (Rtl.label * int) list;
}

type result = {
  value : int64;
  metrics : metrics;
  phases : (string * float) list;
}

(* The final metrics list every Label instruction in program order, with
   counts merged by label name, read from the decode table's name-keyed
   totals. *)
let assemble_label_counts (program : program) totals =
  List.concat_map
    (fun (f : Func.t) ->
      List.filter_map
        (fun (i : Rtl.inst) ->
          match i.kind with
          | Rtl.Label l ->
            Some (l, Option.value (Hashtbl.find_opt totals l) ~default:0)
          | _ -> None)
        f.body)
    program

let icache_for (machine : Machine.t) =
  Cache.create
    { size_bytes = machine.icache_bytes; line_bytes = 32;
      miss_penalty = machine.icache_miss_penalty }

(* Decode, then superblock closure compilation (see Jit). The metric
   oracles — the caches and the decode table's label counters — are
   owned here and read back after the run, so the jit's inlined fast
   paths and the slow paths feed the same counters. *)
let run ~machine ~memory (program : program) ~entry ~args
    ?(fuel = 2_000_000_000) ?(model_icache = false) () =
  let t0 = Monotonic_clock.now () in
  let decode = Decode.create ~machine program in
  let dcache = Cache.create machine.Machine.dcache in
  let icache = if model_icache then Some (icache_for machine) else None in
  let value, jst =
    Jit.run ~machine ~memory ~decode ~dcache ~icache ~fuel ~entry ~args
  in
  let metrics =
    {
      insts = Jit.insts jst;
      cycles = Jit.cycles jst;
      loads = Jit.loads jst;
      stores = Jit.stores jst;
      dcache_hits = Cache.hits dcache;
      dcache_misses = Cache.misses dcache;
      icache_misses =
        (match icache with Some ic -> Cache.misses ic | None -> 0);
      label_counts = assemble_label_counts program (Decode.label_totals decode);
    }
  in
  let decode_s = Decode.seconds decode and compile_s = Jit.compile_seconds jst in
  let total = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
  let execute_s = Stdlib.max 0. (total -. decode_s -. compile_s) in
  {
    value;
    metrics;
    phases =
      [ ("decode", decode_s); ("compile", compile_s); ("execute", execute_s) ];
  }
