(* mcc: the MiniC compiler driver.

   Compiles MiniC source through the vpo-style back end for one of the
   paper's three evaluation machines (or the permissive test32), optionally
   dumping the optimized RTL, explaining what the passes did (--explain),
   and running the program on the cycle-accounting simulator.

     mcc prog.c --machine alpha -O O3 --dump-rtl --explain=coalesce
     mcc prog.c --machine mc88100 -O O4 --run main --args 64,128,100
     mcc --bench image_add --machine alpha --run-bench --size 100 *)

open Cmdliner
module Machine = Mac_machine.Machine
module Pipeline = Mac_vpo.Pipeline
module W = Mac_workloads.Workloads

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let machine_conv =
  let parse s =
    match Machine.by_name s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown machine %S (try alpha, mc88100, mc68030)"
             s))
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf m.Machine.name)

let level_conv =
  let parse s =
    match Pipeline.level_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown level %S (O0..O4)" s))
  in
  Arg.conv (parse, fun ppf l -> Fmt.string ppf (Pipeline.level_to_string l))

let source_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"MiniC source file to compile.")

let bench_arg =
  Arg.(value & opt (some string) None
       & info [ "bench" ] ~docv:"NAME"
           ~doc:"Compile a built-in benchmark instead of a file \
                 (dotproduct, convolution, image_add, image_add16, \
                 image_xor, translate, eqntott, mirror).")

let machine_arg =
  Arg.(value & opt machine_conv Machine.alpha
       & info [ "m"; "machine" ] ~docv:"MACHINE"
           ~doc:"Target machine description.")

let level_arg =
  Arg.(value & opt level_conv Pipeline.O4
       & info [ "O"; "level" ] ~docv:"LEVEL"
           ~doc:"Optimization level: O0 (none), O1 (classic), O2 \
                 (+unrolling), O3 (+coalesce loads), O4 (+coalesce \
                 stores).")

let dump_rtl_arg =
  Arg.(value & flag & info [ "dump-rtl" ] ~doc:"Print the optimized RTL.")

let run_arg =
  Arg.(value & opt (some string) None
       & info [ "run" ] ~docv:"ENTRY"
           ~doc:"Simulate, starting from this function.")

let args_arg =
  Arg.(value & opt (list int) []
       & info [ "args" ] ~docv:"N,N,..."
           ~doc:"Integer arguments for --run (addresses and scalars).")

let run_bench_arg =
  Arg.(value & flag
       & info [ "run-bench" ]
           ~doc:"Run the selected --bench workload end to end and report \
                 metrics.")

let size_arg =
  Arg.(value & opt int 100
       & info [ "size" ] ~docv:"N"
           ~doc:"Image edge length for --run-bench (the paper uses 500).")

let mem_arg =
  Arg.(value & opt int (1 lsl 20)
       & info [ "mem" ] ~docv:"BYTES" ~doc:"Simulated memory size for --run.")

let strength_arg =
  Arg.(value & flag
       & info [ "strength-reduce" ]
           ~doc:"Run induction-variable elimination (paper Fig. 2 line 16):                  derived induction pointers + pointer-compare back                  branches.")

let schedule_arg =
  Arg.(value & flag
       & info [ "schedule" ]
           ~doc:"Apply latency-aware list scheduling per block after                  legalization.")

let sched_arg =
  Arg.(value & flag
       & info [ "sched" ]
           ~doc:"The -Osched pass: modulo-schedule every simple loop                  (iterative modulo scheduling over the same dependence                  DAG the list scheduler uses) and software-pipeline any                  loop whose achieved initiation interval beats its list                  schedule, with modulo variable expansion and a run-time                  dispatch into prologue/kernel/epilogue. Runs after                  --schedule's pass slot and before --regalloc; audited at                  --verify-level full.")

let regalloc_arg =
  Arg.(value & opt (some int) None
       & info [ "regalloc" ] ~docv:"K"
           ~doc:"Finish with linear-scan register allocation onto K machine                  registers (spills use a stack frame).")

let remainder_arg =
  Arg.(value & flag
       & info [ "remainder" ]
           ~doc:"Handle non-divisible trip counts with the Fig. 5 remainder                  epilogue instead of bailing to the safe loop.")

let engine_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "jit" -> Ok `Jit
    | "reference" | "ref" -> Ok `Reference
    | _ -> Error (`Msg (Printf.sprintf "unknown engine %S (jit|reference)" s))
  in
  Arg.conv
    (parse, fun ppf e -> Fmt.string ppf (Mac_sim.Interp.engine_name e))

let engine_arg =
  Arg.(value & opt engine_conv Mac_sim.Interp.default_engine
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Simulator engine: $(b,jit) (the default: pre-decoded,                  then superblock closure compilation with fused                  superinstructions, an inlined cache fast path and a                  per-leader block cache) or $(b,reference) (alias                  $(b,ref): the original tree-walking evaluator the jit is                  pinned against).")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for --table (default: MAC_JOBS, else the                  recommended domain count).")

let table_arg =
  Arg.(value & flag
       & info [ "table" ]
           ~doc:"Print the paper-style evaluation table for --machine:                  every built-in benchmark at O1..O4 at --size, fanned                  over --jobs domains. Combine with --force for the                  paper's measurement configuration. Of the pass options                  only --force, --assume-layout, --sched and --profit-mode                  apply to the sweep; the others are rejected with it.")

let estimate_arg =
  Arg.(value & flag
       & info [ "estimate" ]
           ~doc:"Static estimation report for --bench: predict the                  benchmark's per-loop reuse profiles, miss counts and                  cycles without simulating, then run the simulator once                  and print the prediction next to the ground truth.")

let triage_arg =
  Arg.(value & flag
       & info [ "triage" ]
           ~doc:"Rank every paper-table (section, benchmark) pair by the                  $(b,predicted) payoff of coalescing (static estimate of                  O2-to-O4 cycle savings), simulate only the interesting                  top half, and report how well the predicted order agreed                  with the simulated one.")

let verbose_arg =
  Arg.(value & flag
       & info [ "v"; "verbose" ]
           ~doc:"Log per-loop coalescing decisions as they are made.")

let remote_arg =
  Arg.(value & opt (some string) None
       & info [ "remote" ] ~docv:"SOCK"
           ~doc:"Send the compile to the mccd daemon listening on this \
                 Unix socket instead of compiling in-process; identical \
                 requests are served from its content-addressed cache. \
                 Falls back to a local compile (same artifact format) \
                 when the daemon is unreachable. Compile-only: not \
                 combined with --run/--run-bench/--table/--estimate/\
                 --triage. The request carries the level, verify level \
                 and machine only, so the pass options (--force, \
                 --sched, --regalloc, ...) are rejected with it.")

let force_arg =
  Arg.(value & flag
       & info [ "force" ]
           ~doc:"Apply coalescing unconditionally (no profitability gate,                  no I-cache unrolling guard) — the paper's measurement                  configuration.")

let profit_mode_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "schedule" -> Ok Mac_core.Profitability.Schedule
    | "costsum" | "cost-sum" -> Ok Mac_core.Profitability.CostSum
    | "estimate" -> Ok Mac_core.Profitability.Estimate
    | "pipelined" -> Ok Mac_core.Profitability.Pipelined
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown profitability mode %S \
               (schedule|costsum|estimate|pipelined)"
              s))
  in
  Arg.conv
    ( parse,
      fun ppf m ->
        Fmt.string ppf
          (match m with
          | Mac_core.Profitability.Schedule -> "schedule"
          | Mac_core.Profitability.CostSum -> "costsum"
          | Mac_core.Profitability.Estimate -> "estimate"
          | Mac_core.Profitability.Pipelined -> "pipelined") )

let profit_mode_arg =
  Arg.(value & opt (some profit_mode_conv) None
       & info [ "profit-mode" ] ~docv:"MODE"
           ~doc:"Profitability oracle for the coalescing gate:                  $(b,schedule) (the default: latency-aware list schedule,                  the paper's method), $(b,costsum) (naive in-order cost sum),                  $(b,estimate) (schedule + predicted steady-state d-cache                  miss cycles), or $(b,pipelined) (steady-state initiation                  interval under the -Osched software pipeliner — the                  honest price when --sched runs).")

let force_guards_arg =
  Arg.(value & flag
       & info [ "force-guards" ]
           ~doc:"Emit every run-time dispatch guard even when the static                  disambiguation oracle proves it redundant (disables                  certified elision).")

let assume_layout_arg =
  Arg.(value & flag
       & info [ "assume-layout" ]
           ~doc:"Assert the benchmark's layout facts (buffer alignment,                  allocation provenance, extents) so the oracle can                  discharge provable guards. Only meaningful with --bench.")

let verify_arg =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Run the full verifier: Rtlcheck after every pass, the                  independent coalescing safety audit, and (for a --bench)                  differential execution of O0 against the selected level.                  Shorthand for --verify-level full.")

let verify_level_conv =
  let parse s =
    match Pipeline.verify_level_of_string s with
    | Some v -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf "unknown verify level %S (none|ir|full)" s))
  in
  Arg.conv
    (parse, fun ppf v -> Fmt.string ppf (Pipeline.verify_level_to_string v))

let verify_level_arg =
  Arg.(value & opt (some verify_level_conv) None
       & info [ "verify-level" ] ~docv:"LEVEL"
           ~doc:"How much verification runs between passes: none, ir                  (Rtlcheck well-formedness only), or full (+ the coalescing                  audit). Overrides --verify.")

(* --explain: what a compile (and run) did, one section per concern. *)
type section = Coalesce | Alias | Sched | Tvalid | Passes | Sim

let sections =
  [ ("coalesce", Coalesce); ("alias", Alias); ("sched", Sched);
    ("tvalid", Tvalid); ("passes", Passes); ("sim", Sim) ]

let section_name s = fst (List.find (fun (_, s') -> s' = s) sections)

let explain_arg =
  Arg.(value & opt (list (enum sections)) []
       & info [ "explain" ] ~docv:"SECTION,..."
           ~doc:"Explain what the compile (and run) did, one report per                  section, printed in the order below: $(b,coalesce) (per-loop                  coalescing reports); $(b,alias) (per coalesced loop, the                  guards emitted, the guards discharged statically with their                  certificates, and the totals); $(b,sched) (per simple loop,                  the recurrence and resource bounds on the initiation                  interval, the achieved II against the list schedule's,                  kernel length, stage count and register pressure; implies                  --sched); $(b,tvalid) (per validated pass, the symbolic                  block-pair checks run and skipped, loop regions carved out                  to their certificate audits, fallbacks with reasons, and                  wall-clock; implies --verify-level full unless                  --verify-level is given); $(b,passes) (compile wall-clock                  per pass, summed over functions and optimization rounds);                  $(b,sim) (monotonic wall-clock per simulator phase: decode,                  closure compile, execute; needs --run or --run-bench).                  With --table, $(b,passes) and $(b,sim) aggregate over every                  cell of the sweep; with --remote only $(b,passes) applies.")

(* Everything a section reads, built once per mode: from
   [Pipeline.compiled] (plus the run's phases), from a [W.outcome],
   folded over a sweep with [merge], or decoded from a remote artifact. *)
type view = {
  reports : (string * Mac_core.Coalesce.loop_report list) list;
  sched_reports :
    (string
    * (Mac_opt.Pipeline_sched.report * Mac_opt.Pipeline_sched.cert option)
      list)
    list;
  tvalid_stats : (string * Mac_verify.Tvalid.agg) list;
  pass_seconds : (string * float) list;
  compile_seconds : float;
  sim_phases : (string * float) list;
}

let empty =
  { reports = []; sched_reports = []; tvalid_stats = []; pass_seconds = [];
    compile_seconds = 0.0; sim_phases = [] }

let of_compiled (c : Pipeline.compiled) ~sim_phases =
  { reports = c.reports; sched_reports = c.sched_reports;
    tvalid_stats = c.tvalid_stats; pass_seconds = c.pass_seconds;
    compile_seconds = c.compile_seconds; sim_phases }

let of_outcome (o : W.outcome) =
  { reports = o.reports; sched_reports = o.sched_reports;
    tvalid_stats = o.tvalid_stats; pass_seconds = o.pass_seconds;
    compile_seconds = o.compile_seconds; sim_phases = o.sim_phases }

let add_agg (a : Mac_verify.Tvalid.agg) (b : Mac_verify.Tvalid.agg) :
    Mac_verify.Tvalid.agg =
  { runs = a.runs + b.runs; blocks = a.blocks + b.blocks;
    skipped = a.skipped + b.skipped; regions = a.regions + b.regions;
    fallbacks = a.fallbacks + b.fallbacks;
    fallback_reason =
      (match a.fallback_reason with None -> b.fallback_reason | r -> r);
    seconds = a.seconds +. b.seconds }

(* Two compilations as one: per-function reports side by side, per-name
   counters and timings summed (first-seen name order kept, so the
   simulator phases stay in pipeline order). *)
let merge a b =
  let sum add xs ys =
    List.fold_left
      (fun acc (name, y) ->
        match List.assoc_opt name acc with
        | Some x ->
          List.map (fun (n, v) -> (n, if n = name then add x y else v)) acc
        | None -> acc @ [ (name, y) ])
      xs ys
  in
  { reports = a.reports @ b.reports;
    sched_reports = a.sched_reports @ b.sched_reports;
    tvalid_stats = sum add_agg a.tvalid_stats b.tvalid_stats;
    pass_seconds = sum ( +. ) a.pass_seconds b.pass_seconds;
    compile_seconds = a.compile_seconds +. b.compile_seconds;
    sim_phases = sum ( +. ) a.sim_phases b.sim_phases }

(* coalesce: the coalescer's own per-loop report. *)
let print_reports reports =
  List.iter
    (fun (fname, rs) ->
      List.iter
        (fun r ->
          Fmt.pr "%s: %a@." fname Mac_core.Coalesce.pp_report r)
        rs)
    reports

(* alias: per coalesced loop, what the static disambiguation oracle
   proved and what remained a run-time guard. *)
let print_alias reports =
  let emitted = ref 0 and elided = ref 0 in
  List.iter
    (fun (fname, rs) ->
      List.iter
        (fun (r : Mac_core.Coalesce.loop_report) ->
          match r.Mac_core.Coalesce.status with
          | Mac_core.Coalesce.Coalesced ->
            emitted := !emitted + r.guards_emitted;
            elided := !elided + r.guards_elided;
            Fmt.pr "%s/%s: guards emitted=%d elided=%d@." fname r.header
              r.guards_emitted r.guards_elided;
            List.iter
              (fun e -> Fmt.pr "  %a@." Mac_core.Disambig.pp_elision e)
              r.elisions
          | _ -> ())
        rs)
    reports;
  Fmt.pr "total: guards emitted=%d elided=%d@." !emitted !elided

(* sched: per simple loop, what the modulo scheduler achieved (or why it
   declined), plus aggregate counters. *)
let print_sched sched_reports =
  let pipelined = ref 0 and reordered = ref 0 and rejected = ref 0 in
  List.iter
    (fun (fname, rs) ->
      List.iter
        (fun ((r : Mac_opt.Pipeline_sched.report), _) ->
          (match r.Mac_opt.Pipeline_sched.status with
          | Mac_opt.Pipeline_sched.Pipelined -> incr pipelined
          | Mac_opt.Pipeline_sched.Reordered -> incr reordered
          | Mac_opt.Pipeline_sched.Rejected _ -> incr rejected);
          Fmt.pr "@[<v>%s/%a@]@." fname Mac_opt.Pipeline_sched.pp_report r)
        rs)
    sched_reports;
  Fmt.pr "total: pipelined=%d reordered=%d rejected=%d@." !pipelined
    !reordered !rejected

(* tvalid: what the per-pass translation validator did. *)
let print_tvalid (stats : (string * Mac_verify.Tvalid.agg) list) =
  let open Mac_verify.Tvalid in
  Fmt.pr "translation validation (per pass):@.";
  Fmt.pr "  %-14s %6s %8s %8s %8s %10s %10s@." "pass" "runs" "checked"
    "skipped" "regions" "fallbacks" "ms";
  let total =
    List.fold_left (fun t (_, a) -> add_agg t a) (agg_zero ()) stats
  in
  List.iter
    (fun (name, a) ->
      Fmt.pr "  %-14s %6d %8d %8d %8d %10d %10.3f@." name a.runs a.blocks
        a.skipped a.regions a.fallbacks (a.seconds *. 1e3))
    stats;
  (* fallbacks are legitimate (renaming passes check via Rtlcheck +
     certificate audits instead of symbolic execution) but must never
     be silent: name each pass's reason *)
  List.iter
    (fun (name, a) ->
      match a.fallback_reason with
      | Some r when a.fallbacks > 0 -> Fmt.pr "  fallback %s: %s@." name r
      | _ -> ())
    stats;
  Fmt.pr "total: %d validation run(s), %d block pair(s) checked, %d skipped, \
          %d region(s), %d fallback(s) in %.3f ms@."
    total.runs total.blocks total.skipped total.regions total.fallbacks
    (total.seconds *. 1e3)

let print_phases ~what ~total phases =
  Fmt.pr "%s profile (total %.3f ms):@." what (total *. 1e3);
  List.iter
    (fun (name, s) ->
      Fmt.pr "  %-12s %8.3f ms  %5.1f%%@." name (s *. 1e3)
        (if total > 0.0 then 100.0 *. s /. total else 0.0))
    phases

(* passes: the slowest pass first. *)
let print_passes ~total pass_seconds =
  print_phases ~what:"compile-time" ~total
    (List.sort
       (fun (na, a) (nb, b) ->
         match compare b a with 0 -> compare na nb | c -> c)
       pass_seconds)

(* sim: kept in pipeline order (decode, then closure compile, then
   execute) rather than sorted. *)
let print_sim phases =
  print_phases ~what:"simulation-time"
    ~total:(List.fold_left (fun acc (_, s) -> acc +. s) 0.0 phases)
    phases

(* The one place a section is rendered: the chosen sections in the
   order of [sections], whatever order they were given in. *)
let explain chosen v =
  let on s = List.mem s chosen in
  if on Coalesce then print_reports v.reports;
  if on Alias then print_alias v.reports;
  if on Sched then print_sched v.sched_reports;
  if on Tvalid then print_tvalid v.tvalid_stats;
  if on Passes then print_passes ~total:v.compile_seconds v.pass_seconds;
  if on Sim then print_sim v.sim_phases

let print_metrics (m : Mac_sim.Interp.metrics) =
  Fmt.pr
    "cycles=%d instructions=%d loads=%d stores=%d dcache-hits=%d \
     dcache-misses=%d@."
    m.cycles m.insts m.loads m.stores m.dcache_hits m.dcache_misses

(* Every diagnostic — Rtlcheck, the audits, the translation validator —
   carries its pass and function name, so they all render through one
   format: [severity] pass(function): message. *)
let print_diags diags =
  List.iter
    (fun (_fname, ds) ->
      List.iter (fun d -> Fmt.pr "%a@." Mac_verify.Diagnostic.pp d) ds)
    diags

let print_estimate ~machine (s : Mac_dataflow.Reuse.summary)
    (m : Mac_sim.Interp.metrics) =
  Fmt.pr "%a@." (Mac_core.Estimate.pp_summary ~machine) s;
  Fmt.pr
    "predicted: cycles=%d instructions=%d loads=%d stores=%d \
     dcache-misses=%d%s@."
    s.Mac_dataflow.Reuse.s_cycles s.s_insts s.s_loads s.s_stores s.s_misses
    (if s.s_approx then " (approximate)" else "");
  Fmt.pr
    "simulated: cycles=%d instructions=%d loads=%d stores=%d \
     dcache-misses=%d@."
    m.cycles m.insts m.loads m.stores m.dcache_misses

let print_triage ?jobs ~engine ~size () =
  let t = Mac_workloads.Estcells.run_triage ?jobs ~engine ~size () in
  Fmt.pr
    "triage: simulated %d, skipped %d, order agreement %.2f (est %.4fs \
     vs sim %.4fs)@."
    t.Mac_workloads.Estcells.simulated t.skipped t.agreement t.t_est_seconds
    t.t_sim_seconds;
  Fmt.pr "| %-6s | %-12s | %9s | %9s |@." "sect" "program" "pred sv%"
    "sim sv%";
  List.iter
    (fun (r : Mac_workloads.Estcells.ranked) ->
      Fmt.pr "| %-6s | %-12s | %9.2f | %9s |@." r.r_section r.r_bench
        r.r_pred_savings
        (match r.r_sim_savings with
        | Some s -> Printf.sprintf "%.2f" s
        | None -> "skipped"))
    t.ranking

(* --remote: render the daemon's canonical artifact document the way a
   local compile would print. Returns the process exit code. *)
let print_artifact ~dump_rtl ~chosen body =
  let module J = Mac_workloads.Jsonio in
  match J.parse body with
  | Error msg ->
    Fmt.epr "mcc: malformed remote artifact: %s@." msg;
    1
  | Ok doc -> (
    let str_of k obj =
      match J.member k obj with Some (J.Str s) -> s | _ -> "?"
    in
    match J.member "ok" doc with
    | Some (J.Bool true) ->
      if dump_rtl then
        (match J.member "funcs" doc with
        | Some (J.Arr funcs) ->
          List.iter (fun f -> Fmt.pr "%s@." (str_of "rtl" f)) funcs
        | _ -> ());
      (match J.member "diags" doc with
      | Some (J.Arr ds) ->
        List.iter
          (fun d -> match d with J.Str s -> Fmt.pr "%s@." s | _ -> ())
          ds
      | _ -> ());
      (match (J.member "guards_emitted" doc, J.member "guards_elided" doc) with
      | Some (J.Num e), Some (J.Num l) ->
        Fmt.pr "guards: emitted=%.0f elided=%.0f@." e l
      | _ -> ());
      (match (J.member "pass_seconds" doc, J.member "compile_seconds" doc) with
      | Some (J.Obj passes), Some (J.Num total) ->
        let pass_seconds =
          List.filter_map
            (function name, J.Num s -> Some (name, s) | _ -> None)
            passes
        in
        explain chosen { empty with pass_seconds; compile_seconds = total }
      | _ -> ());
      0
    | _ ->
      Fmt.epr "mcc: remote compile failed [%s]: %s@." (str_of "kind" doc)
        (str_of "error" doc);
      1)

let main source bench machine level dump_rtl chosen run args run_bench size
    mem_size strength_reduce schedule sched regalloc remainder force
    profit_mode force_guards assume_layout verify verify_level engine jobs
    table estimate triage remote verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  let vlevel =
    match verify_level with
    | Some v -> v
    | None ->
      if verify || List.mem Tvalid chosen then Pipeline.Vfull
      else Pipeline.Vnone
  in
  let verifying = vlevel <> Pipeline.Vnone in
  let pipeline_sched = sched || List.mem Sched chosen in
  let coalesce =
    { Mac_core.Coalesce.default with
      remainder_loop = remainder;
      respect_profitability = not force;
      icache_guard = not force;
      profit_mode =
        Option.value profit_mode
          ~default:Mac_core.Coalesce.default.profit_mode;
      force_guards }
  in
  let config ?(facts = []) machine =
    Pipeline.config ~level ~coalesce ~strength_reduce ~schedule
      ~pipeline_sched ?regalloc ~verify:vlevel ~facts machine
  in
  (* What each mode can explain, and the options it would otherwise drop
     without a word: --remote sends only level, verify level and
     machine; --table takes only what [Tables.table] does. *)
  let mode, fillable, dropped =
    let all = List.map snd sections in
    if remote <> None then
      ( "--remote", [ Passes ],
        [ "--force"; "--strength-reduce"; "--schedule"; "--sched";
          "--regalloc"; "--remainder"; "--profit-mode"; "--force-guards";
          "--assume-layout" ] )
    else if triage then ("--triage", [], [])
    else if estimate then ("--estimate", [], [])
    else if table then
      ( "--table", [ Passes; Sim ],
        [ "--strength-reduce"; "--schedule"; "--regalloc"; "--remainder";
          "--force-guards"; "--verify"; "--verify-level" ] )
    else if run <> None || (run_bench && bench <> None) then ("a run", all, [])
    else ("a compile without --run", List.filter (( <> ) Sim) all, [])
  in
  let given =
    [ ("--force", force); ("--strength-reduce", strength_reduce);
      ("--schedule", schedule); ("--sched", sched);
      ("--regalloc", regalloc <> None); ("--remainder", remainder);
      ("--profit-mode", profit_mode <> None); ("--force-guards", force_guards);
      ("--assume-layout", assume_layout); ("--verify", verify);
      ("--verify-level", verify_level <> None) ]
  in
  let unusable =
    match List.find_opt (fun s -> not (List.mem s fillable)) chosen with
    | Some s ->
      Some (Fmt.str "--explain=%s has nothing to show for %s"
              (section_name s) mode)
    | None -> (
      match List.find_opt (fun (o, on) -> on && List.mem o dropped) given with
      | Some (o, _) -> Some (Fmt.str "%s does not apply %s" mode o)
      | None when List.mem Tvalid chosen && vlevel <> Pipeline.Vfull ->
        Some "--explain=tvalid needs --verify-level full"
      | None -> None)
  in
  let find_bench name =
    match W.find name with
    | Some b -> b
    | None -> Fmt.failwith "unknown benchmark %S" name
  in
  (* O0-vs-level differential execution on the simulator, the last verifier
     layer; only meaningful for a workload with a reference harness. *)
  let differential b =
    if level = Pipeline.O0 then 0
    else if regalloc <> None then begin
      Fmt.pr
        "differential execution skipped: --regalloc spill frames are not \
         comparable heap state@.";
      0
    end
    else begin
      let d =
        W.differential ~size ~coalesce ~strength_reduce ~schedule
          ~pipeline_sched ~verify:vlevel ~engine ~machine ~level b
      in
      match d.detail with
      | None ->
        Fmt.pr "differential O0 vs %s: return value and heap agree@."
          (Pipeline.level_to_string level);
        0
      | Some msg ->
        Fmt.epr "DIFFERENTIAL MISMATCH: %s@." msg;
        1
    end
  in
  let source_text () =
    match (source, bench) with
    | Some path, _ -> read_file path
    | None, Some name -> (find_bench name).W.source
    | None, None -> failwith "provide a FILE or --bench NAME (see --help)"
  in
  (* --remote: ship the compile to mccd, falling back to an identical
     local compile when the daemon is unreachable. *)
  let remote_compile sock =
    if run <> None || run_bench || table || estimate || triage then begin
      Fmt.epr
        "mcc: --remote is compile-only (not combined with \
         --run/--run-bench/--table/--estimate/--triage)@.";
      1
    end
    else
      let src =
        match bench with
        | Some name when source = None -> `Bench name
        | _ -> `Source (source_text ())
      in
      let req =
        Mac_serve.Protocol.request ~level ~verify:vlevel
          ~machine:machine.Machine.name src
      in
      match Mac_serve.Client.request_or_local ~socket:sock req with
      | `Remote (hello, reply) ->
        Fmt.pr "remote: %s %s key=%s daemon=%s@."
          (if reply.Mac_serve.Protocol.r_cached then "cache-hit"
           else "compiled")
          (if reply.r_ok then "ok" else "FAILED")
          reply.r_key hello.Mac_serve.Protocol.h_fingerprint;
        print_artifact ~dump_rtl ~chosen reply.r_body
      | `Local (_, body) ->
        Fmt.pr "remote: daemon unreachable at %s, compiled locally@." sock;
        print_artifact ~dump_rtl ~chosen body
  in
  try
    match (unusable, remote) with
    | Some msg, _ ->
      Fmt.epr "mcc: %s@." msg;
      1
    | None, Some sock -> remote_compile sock
    | None, None ->
    if triage then begin
      print_triage ?jobs ~engine ~size ();
      0
    end
    else if estimate then begin
      match bench with
      | None ->
        Fmt.epr "mcc: --estimate needs --bench NAME@.";
        1
      | Some name ->
        let b = find_bench name in
        let p =
          W.estimate ~size ~coalesce ~strength_reduce ~schedule ?regalloc
            ~assume_layout ~machine ~level b
        in
        let o =
          W.run ~size ~coalesce ~strength_reduce ~schedule ~pipeline_sched
            ?regalloc ~assume_layout ~engine ~machine ~level b
        in
        print_estimate ~machine p.W.summary o.W.metrics;
        Fmt.pr "estimate %.4fs vs simulation %.4fs@." p.W.est_seconds
          o.W.sim_seconds;
        0
    end
    else if table then begin
      let rows =
        Mac_workloads.Tables.table ~size
          ~respect_profitability:(not force) ~assume_layout ~engine
          ?profit_mode ~pipeline_sched ?jobs ~machine ()
      in
      Mac_workloads.Tables.pp_table Format.std_formatter machine rows;
      Format.pp_print_flush Format.std_formatter ();
      explain chosen
        (List.fold_left
           (fun v (r : Mac_workloads.Tables.row) ->
             List.fold_left (fun v (_, o) -> merge v (of_outcome o)) v
               r.outcomes)
           empty rows);
      0
    end
    else
    match bench with
    | Some name when run_bench ->
      let b = find_bench name in
      let o =
        W.run ~size ~coalesce ~strength_reduce ~schedule ~pipeline_sched
          ?regalloc ~verify:vlevel ~assume_layout ~engine ~machine ~level b
      in
      explain chosen (of_outcome o);
      if verifying then print_diags o.diags;
      print_metrics o.metrics;
      Fmt.pr "return value: %Ld@." o.value;
      (match o.error with
      | None ->
        Fmt.pr "output verified against the reference implementation@.";
        if verifying then differential b else 0
      | Some e ->
        Fmt.epr "OUTPUT MISMATCH: %s@." e;
        1)
    | _ ->
      let facts =
        match bench with
        | Some name when assume_layout && source = None ->
          let b = find_bench name in
          [ (b.W.entry, b.W.facts W.default_layout ~size) ]
        | _ -> []
      in
      let compiled =
        Pipeline.compile_source (config ~facts machine) (source_text ())
      in
      (* the RTL first, so a run that traps still leaves it on screen *)
      if dump_rtl then
        List.iter (fun f -> Fmt.pr "%a@." Mac_rtl.Func.pp f) compiled.funcs;
      let result =
        Option.map
          (fun entry ->
            let memory = Mac_sim.Memory.create ~size:mem_size in
            Mac_sim.Interp.run ~machine ~memory compiled.funcs ~entry
              ~args:(List.map Int64.of_int args) ~engine ())
          run
      in
      explain chosen
        (of_compiled compiled
           ~sim_phases:(match result with Some r -> r.phases | None -> []));
      if verifying then begin
        print_diags compiled.diags;
        Fmt.pr "verified: every pass passed Rtlcheck at level %s@."
          (Pipeline.verify_level_to_string vlevel)
      end;
      Option.iter
        (fun (r : Mac_sim.Interp.result) ->
          Fmt.pr "return value: %Ld@." r.value;
          print_metrics r.metrics)
        result;
      match bench with
      | Some name when verifying -> differential (find_bench name)
      | _ -> 0
  with
  | Pipeline.Verification_failed d ->
    Fmt.epr "mcc: VERIFICATION FAILED: %a@." Mac_verify.Diagnostic.pp d;
    1
  | Mac_minic.Lexer.Error (msg, line, col) ->
    Fmt.epr "mcc: lexical error at %d:%d: %s@." line col msg;
    1
  | Mac_minic.Parser.Error (msg, line, col) ->
    Fmt.epr "mcc: syntax error at %d:%d: %s@." line col msg;
    1
  | Mac_minic.Typecheck.Error msg | Mac_minic.Lower.Error msg ->
    Fmt.epr "mcc: %s@." msg;
    1
  | Mac_sim.Interp.Trap msg ->
    Fmt.epr "mcc: simulator trap: %s@." msg;
    1
  | Failure msg ->
    Fmt.epr "mcc: %s@." msg;
    1

let cmd =
  let doc =
    "MiniC compiler with memory access coalescing (Davidson & Jinturkar, \
     PLDI 1994)"
  in
  Cmd.v
    (Cmd.info "mcc" ~doc ~version:Mac_vpo.Version.compiler_fingerprint)
    Term.(
      const main $ source_arg $ bench_arg $ machine_arg $ level_arg
      $ dump_rtl_arg $ explain_arg $ run_arg $ args_arg $ run_bench_arg
      $ size_arg $ mem_arg $ strength_arg $ schedule_arg $ sched_arg
      $ regalloc_arg $ remainder_arg $ force_arg $ profit_mode_arg
      $ force_guards_arg $ assume_layout_arg $ verify_arg $ verify_level_arg
      $ engine_arg $ jobs_arg $ table_arg $ estimate_arg $ triage_arg
      $ remote_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
