(* The jit (pre-decoded, superblock closure) simulator must be
   bit-identical to the tree-walking oracle in [Sim_oracle]: same return
   value, same final heap, and the same metrics down to every counter —
   cycles, stall-sensitive load/store accounting, icache misses at
   synthetic fetch addresses, and per-label visit counts. Checked two
   ways: every packaged workload on every machine at every optimization
   level, and a qcheck sweep over random MiniC loop kernels with random
   (skewed, possibly overlapping) buffer layouts — with icache modelling
   both off (superinstruction fusion active) and on (per-fetch generic
   closures). Dedicated corner cases pin the jit's block-cache and
   fusion edges: zero-trip loops, a fused compare+branch as the final
   instruction, and a fused load that traps on the misaligned slow
   path. *)

open Mac_rtl
module Machine = Mac_machine.Machine
module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp
module Pipeline = Mac_vpo.Pipeline
module W = Mac_workloads.Workloads
module Tables = Mac_workloads.Tables

let machines = Machine.all @ [ Machine.test32 ]
let levels = Pipeline.[ O0; O1; O2; O3; O4 ]

let pp_metrics (m : Interp.metrics) =
  Printf.sprintf
    "insts=%d cycles=%d loads=%d stores=%d dhit=%d dmiss=%d imiss=%d \
     labels=[%s]"
    m.insts m.cycles m.loads m.stores m.dcache_hits m.dcache_misses
    m.icache_misses
    (String.concat ";"
       (List.map (fun (l, n) -> Printf.sprintf "%s:%d" l n) m.label_counts))

let check_equal ~what (rj : Interp.result) (rr : Interp.result) hj hr =
  Alcotest.(check int64)
    (what ^ ": return value") rr.value rj.value;
  if not (Bytes.equal hj hr) then
    Alcotest.failf "%s: final heap differs from the oracle's" what;
  if rj.metrics <> rr.metrics then
    Alcotest.failf "%s: metrics differ\n  jit: %s\n  ref: %s" what
      (pp_metrics rj.metrics) (pp_metrics rr.metrics)

(* --- every workload x machine x level x icache mode ----------------- *)

let run_bench ?(sim = Interp.run) (b : W.t) ~machine ~level ~model_icache =
  let cfg = Pipeline.config ~level machine in
  let compiled = Pipeline.compile_source cfg b.source in
  let mem = Memory.create ~size:(1 lsl 18) in
  let inst = b.prepare W.default_layout ~size:16 mem in
  let r =
    sim ~machine ~memory:mem compiled.funcs ~entry:b.entry ~args:inst.args
      ~model_icache ()
  in
  (r, Memory.load_bytes mem ~addr:8L ~len:((1 lsl 18) - 9))

let test_workloads_agree () =
  List.iter
    (fun (b : W.t) ->
      List.iter
        (fun machine ->
          List.iter
            (fun level ->
              List.iter
                (fun model_icache ->
                  let what =
                    Printf.sprintf "%s/%s/%s%s" b.name machine.Machine.name
                      (Pipeline.level_to_string level)
                      (if model_icache then "+icache" else "")
                  in
                  let rr, hr =
                    run_bench ~sim:Sim_oracle.run b ~machine ~level
                      ~model_icache
                  in
                  let rj, hj = run_bench b ~machine ~level ~model_icache in
                  check_equal ~what:(what ^ "/jit") rj rr hj hr)
                [ false; true ])
            levels)
        machines)
    (W.dotproduct :: W.all)

(* --- random MiniC kernels (Kernel_gen, shared with test_props) ----- *)

open Kernel_gen

(* icache off exercises the jit's fused superinstructions; icache on
   forces the generic per-fetch closures — the property sweeps both. *)
let prop_engines_agree machine =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "jit engine matches reference on %s"
         machine.Machine.name)
    ~count:60 arbitrary_kernel
    (fun k ->
      List.for_all
        (fun level ->
          List.for_all
            (fun model_icache ->
              match
                ( run_kernel k ~machine ~level ~model_icache,
                  run_kernel ~sim:Sim_oracle.run k ~machine ~level
                    ~model_icache )
              with
              | Ok (rj, hj), Ok (rr, hr) ->
                Int64.equal rj.Interp.value rr.Interp.value
                && Bytes.equal hj hr
                && rj.metrics = rr.metrics
              | Error mj, Error mr ->
                (* the jit must trap with the oracle's very message *)
                String.equal mj mr
              | Ok _, Error _ | Error _, Ok _ -> false)
            [ false; true ])
        levels)

(* --- jit corner cases ------------------------------------------------ *)

let run_raw ?(sim = Interp.run) ?(machine = Machine.alpha) program ~args =
  let memory = Memory.create ~size:4096 in
  match sim ~machine ~memory program ~entry:"main" ~args () with
  | (r : Interp.result) -> Ok (r.value, r.metrics)
  | exception Interp.Trap msg -> Error msg

let agree ?machine ~what program args =
  let expected = run_raw ~sim:Sim_oracle.run ?machine program ~args in
  if run_raw ?machine program ~args <> expected then
    Alcotest.failf "%s: jit disagrees with the oracle" what;
  expected

(* A zero-trip loop: the remainder dispatch jumps straight past the body
   with n = 0, so the jit enters a block, executes only the compare and
   exit branch, and must exit through the block cache without running a
   single body closure. *)
let test_zero_trip () =
  let k =
    {
      elems = [| Eint; Eint; Eint |];
      stmts =
        [ { dst = 0; dst_off = 0; rhs = Load (1, 0); in_place_op = None } ];
      n = 0;
      skews = [| 0; 0; 0 |];
      bases = [| 1024; 2048; 3072 |];
    }
  in
  List.iter
    (fun machine ->
      List.iter
        (fun level ->
          let what =
            Printf.sprintf "zero-trip/%s/%s" machine.Machine.name
              (Pipeline.level_to_string level)
          in
          let run ?sim () =
            match run_kernel ?sim k ~machine ~level with
            | Ok ((r : Interp.result), h) -> Ok ((r.value, r.metrics), h)
            | Error m -> Error m
          in
          if run () <> run ~sim:Sim_oracle.run () then
            Alcotest.failf "%s: jit disagrees with the oracle" what)
        levels)
    machines

(* A compare + branch pair as the very last instructions of a function —
   the jit fuses them, and the fall-through successor of the fused pair
   is the fell-off-the-end trap. Taken, the branch exits through an
   earlier label and returns; not taken, the jit must trap with the
   oracle's message. *)
let cmp_branch_final () =
  let f = Func.create ~name:"main" ~params:[ Reg.make 0 ] in
  Func.append f (Rtl.Jump "Ltest");
  Func.append f (Rtl.Label "Lexit");
  Func.append f (Rtl.Ret (Some (Rtl.Imm 42L)));
  Func.append f (Rtl.Label "Ltest");
  Func.append f
    (Rtl.Binop (Rtl.Cmp Rtl.Eq, Reg.make 1, Rtl.Reg (Reg.make 0), Rtl.Imm 5L));
  Func.append f
    (Rtl.Branch
       { cmp = Rtl.Ne; l = Rtl.Reg (Reg.make 1); r = Rtl.Imm 0L;
         target = "Lexit" });
  [ f ]

let test_cmp_branch_final () =
  (* taken exit: the fused branch leaves through the block cache *)
  (match agree ~what:"cmp+branch taken" (cmp_branch_final ()) [ 5L ] with
  | Ok (v, _) -> Alcotest.(check int64) "taken exit returns 42" 42L v
  | Error m -> Alcotest.failf "cmp+branch taken trapped: %s" m);
  (* not taken: the fused pair is the last instruction, falling through
     must hit the fell-off-the-end trap, as in the oracle *)
  match agree ~what:"cmp+branch fall-off" (cmp_branch_final ()) [ 6L ] with
  | Ok (v, _) ->
    Alcotest.failf "cmp+branch fall-off returned %Ld instead of trapping" v
  | Error m ->
    if not (String.length m >= 8 && String.sub m 0 8 = "fell off") then
      Alcotest.failf "unexpected trap %S" m

(* An address-compute + load pair the jit fuses; the computed address is
   misaligned, so the inlined cache fast path must reject it and the
   slow path must raise the same trap as the oracle. *)
let test_fused_load_misaligned () =
  let f = Func.create ~name:"main" ~params:[ Reg.make 0 ] in
  Func.append f
    (Rtl.Binop (Rtl.Add, Reg.make 1, Rtl.Reg (Reg.make 0), Rtl.Imm 1L));
  Func.append f
    (Rtl.Load
       {
         dst = Reg.make 2;
         src =
           { Rtl.base = Reg.make 1; disp = 0L; width = Width.W32;
             aligned = true };
         sign = Rtl.Signed;
       });
  Func.append f (Rtl.Ret (Some (Rtl.Reg (Reg.make 2))));
  let program = [ f ] in
  (* aligned base + 1 -> misaligned W32 on the Alpha: must trap *)
  (match agree ~what:"fused load misaligned" program [ 1024L ] with
  | Ok (v, _) ->
    Alcotest.failf "misaligned fused load returned %Ld instead of trapping" v
  | Error m ->
    if not (String.length m >= 10 && String.sub m 0 10 = "misaligned") then
      Alcotest.failf "unexpected trap %S" m);
  (* the same pair with an aligned base takes the inlined fast path *)
  match agree ~what:"fused load aligned" program [ 1023L ] with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "aligned fused load trapped: %s" m

(* Trap fidelity on a real kernel: O4 image_add runs out of fuel in its
   loop, and the jit traps with the oracle's message. *)
let test_out_of_fuel () =
  let bench = Option.get (W.find "image_add") in
  let compiled =
    Pipeline.compile_source
      (Pipeline.config ~level:Pipeline.O4 Machine.alpha)
      bench.W.source
  in
  let trap ~oracle =
    let sim = if oracle then Sim_oracle.run else Interp.run in
    match
      sim ~machine:Machine.alpha ~memory:(Memory.create ~size:(1 lsl 16))
        compiled.funcs ~entry:bench.W.entry ~args:[ 64L; 4096L; 8192L; 1024L ]
        ~fuel:100 ()
    with
    | _ -> Alcotest.failf "finished on 100 fuel (oracle: %b)" oracle
    | exception Interp.Trap msg -> msg
  in
  Alcotest.(check string) "oracle trap" "out of fuel in image_add"
    (trap ~oracle:true);
  Alcotest.(check string) "jit trap" "out of fuel in image_add"
    (trap ~oracle:false)

(* --- satellite: the icache miss penalty is the icache's own ---------- *)

let test_icache_penalty () =
  (* a machine whose icache penalty differs from its dcache penalty; the
     single straight-line function fetches every instruction through one
     cold line, so the expected cycle count is directly computable *)
  let machine =
    {
      Machine.test32 with
      name = "icp";
      icache_miss_penalty = 7;
      dcache = { Machine.test32.dcache with miss_penalty = 100 };
    }
  in
  let f = Func.create ~name:"main" ~params:[] in
  Func.append f (Rtl.Move (Reg.make 0, Rtl.Imm 1L));
  Func.append f (Rtl.Ret (Some (Rtl.Reg (Reg.make 0))));
  List.iter
    (fun oracle ->
      let sim = if oracle then Sim_oracle.run else Interp.run in
      let r =
        sim ~machine ~memory:(Memory.create ~size:4096) [ f ] ~entry:"main"
          ~args:[] ~model_icache:true ()
      in
      (* both instructions fetch from the same 32-byte line: one miss.
         cycles = miss penalty (7) + move issue (1) + ret issue (1) *)
      Alcotest.(check int) "icache miss count" 1 r.metrics.icache_misses;
      Alcotest.(check int) "cycles use icache penalty" 9 r.metrics.cycles)
    [ true; false ]

(* The jit reports its decode and closure-compile phases (the oracle
   has neither), in order, and its metrics are the oracle's. *)
let test_jit_phases () =
  let f = cmp_branch_final () in
  let run ~oracle =
    (if oracle then Sim_oracle.run else Interp.run)
      ~machine:Machine.alpha ~memory:(Memory.create ~size:4096) f
      ~entry:"main" ~args:[ 5L ] ()
  in
  let j = run ~oracle:false and o = run ~oracle:true in
  Alcotest.(check (list string)) "phase names"
    [ "decode"; "compile"; "execute" ] (List.map fst j.phases);
  if j.metrics <> o.metrics then
    Alcotest.fail "jit run's metrics differ from the oracle's";
  if not (List.assoc "compile" j.phases > 0.0) then
    Alcotest.fail "jit run reports no closure compile time"

(* The paper tables are deterministic in the worker count (MAC_JOBS):
   every simulated cell comes back identical, down to each metric,
   whether the benchmark x level cells run serially or fan over four
   domains. That includes FULL, whose cells run strength reduction,
   scheduling and register allocation at Vfull. Timing fields are
   measurements and are not compared. *)
let test_tables_determinism () =
  let cells (r : Tables.row) =
    List.map
      (fun (level, (o : W.outcome)) ->
        (r.Tables.bench.W.name, level, o.W.value, o.W.metrics, o.W.correct))
      r.Tables.outcomes
  in
  List.iter
    (fun (machine, pipeline_sched) ->
      let profit_mode =
        if pipeline_sched then Some Mac_core.Profitability.Pipelined else None
      in
      let rows jobs =
        List.concat_map cells
          (Tables.table ~size:8 ~assume_layout:true ~pipeline_sched
             ?profit_mode ~jobs ~machine ())
      in
      if rows 1 <> rows 4 then
        Alcotest.failf "%s%s: rows differ between 1 and 4 jobs"
          machine.Machine.name
          (if pipeline_sched then " -Osched" else ""))
    [
      (Machine.alpha, false); (Machine.mc88100, false);
      (Machine.mc68030, false); (Machine.mc88100, true);
      (Machine.mc68030, true);
    ];
  let full jobs =
    List.map
      (fun ((b : W.t), level, (o : W.outcome)) ->
        (b.W.name, level, o.W.value, o.W.metrics, o.W.correct))
      (Tables.full ~size:8 ~jobs ())
  in
  if full 1 <> full 4 then
    Alcotest.fail "FULL: outcomes differ between 1 and 4 jobs"

let () =
  Alcotest.run "engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "all workloads, all machines, all levels"
            `Quick test_workloads_agree;
        ] );
      ( "qcheck",
        List.map
          (fun m -> QCheck_alcotest.to_alcotest (prop_engines_agree m))
          machines );
      ( "icache",
        [ Alcotest.test_case "penalty is the icache's own" `Quick
            test_icache_penalty ] );
      ( "phases",
        [ Alcotest.test_case "jit reports decode and compile" `Quick
            test_jit_phases ] );
      ( "jit corners",
        [
          Alcotest.test_case "zero-trip loop agrees with the oracle" `Quick
            test_zero_trip;
          Alcotest.test_case "fused compare+branch as final instruction"
            `Quick test_cmp_branch_final;
          Alcotest.test_case "fused load takes the misaligned slow path"
            `Quick test_fused_load_misaligned;
          Alcotest.test_case "out of fuel traps like the oracle"
            `Quick test_out_of_fuel;
        ] );
      ( "tables",
        [ Alcotest.test_case "rows independent of worker count" `Quick
            test_tables_determinism ] );
    ]
