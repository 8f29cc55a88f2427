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
   fusion edges: zero-trip loops, a compare+branch as the final
   instruction, and fused loads on the misaligned slow path; and its
   specialized bodies: every binop and branch comparison in every
   operand shape, and division by zero. The
   decoded stall sets, cut to the registers that can stall, are checked
   against a recomputation from the RTL, and hand-written programs pin
   the cut where it is easiest to get wrong: a register with both a
   fast and a slow def, and multiplies whose latency does or does not
   outrun their issue. *)

open Mac_rtl
module Machine = Mac_machine.Machine
module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp
module Decode = Mac_sim.Decode
module Pipeline = Mac_vpo.Pipeline
module W = Mac_workloads.Workloads
module Tables = Mac_workloads.Tables

let machines = Machine.all @ [ Test32.machine ]
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

(* A compare + branch pair as the very last instructions of a function:
   the fall-through successor of the branch is the fell-off-the-end
   trap. Taken, the branch exits through an earlier label and returns;
   not taken, the jit must trap with the oracle's message. *)
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
  (* taken exit: the branch leaves through the block cache *)
  (match agree ~what:"cmp+branch taken" (cmp_branch_final ()) [ 5L ] with
  | Ok (v, _) -> Alcotest.(check int64) "taken exit returns 42" 42L v
  | Error m -> Alcotest.failf "cmp+branch taken trapped: %s" m);
  (* not taken: the branch is the last instruction, falling through
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

(* --- stall sets ------------------------------------------------------ *)

let decoded machine program name =
  Option.get (Decode.find (Decode.create ~machine program) name)

let r = Reg.make
let mem ?(aligned = true) base width = { Rtl.base = r base; disp = 0L; width; aligned }

(* A slot's stall set, recomputed from the RTL: the registers it uses
   that some instruction of the function defines by a load or with a
   latency beyond its issue. *)
let slow_regs machine (f : Func.t) =
  List.concat_map
    (fun (i : Rtl.inst) ->
      let k = i.kind in
      let load = match k with Rtl.Load _ -> true | _ -> false in
      if load || Machine.latency machine k > max 1 (Machine.inst_cost machine k)
      then List.map Reg.id (Rtl.defs k)
      else [])
    f.body

let expected_reads machine (f : Func.t) (k : Rtl.kind) =
  let slow = slow_regs machine f in
  List.sort_uniq compare
    (List.filter (fun id -> List.mem id slow) (List.map Reg.id (Rtl.uses k)))

let check_stall_sets ~what machine (f : Func.t) =
  let fn = decoded machine [ f ] f.name in
  let slow = slow_regs machine f in
  List.iteri
    (fun pc (i : Rtl.inst) ->
      let s = fn.Decode.code.(pc) in
      let got = List.sort compare (Array.to_list s.Decode.reads) in
      if got <> expected_reads machine f i.kind then
        Alcotest.failf "%s: stall set of %s" what (Rtl.to_string i.kind);
      let sets = List.exists (fun d -> List.mem (Reg.id d) slow) (Rtl.defs i.kind) in
      if s.Decode.sets_ready <> sets then
        Alcotest.failf "%s: ready flag of %s" what (Rtl.to_string i.kind))
    f.body

(* r1 has a load def and an ALU def. Read right after the ALU def, in the
   next block, it must not stall on the load's (missing) ready time, so
   the ALU def has to record its own; read after the load def in the
   next block, it must stall. *)
let test_mixed_defs () =
  let f = Func.create ~name:"main" ~params:[ r 0 ] in
  Func.append f (Rtl.Load { dst = r 1; src = mem 0 Width.W32; sign = Rtl.Signed });
  Func.append f (Rtl.Binop (Rtl.Add, r 1, Rtl.Reg (r 0), Rtl.Imm 8L));
  Func.append f (Rtl.Label "L1");
  Func.append f (Rtl.Binop (Rtl.Add, r 2, Rtl.Reg (r 1), Rtl.Imm 4L));
  Func.append f (Rtl.Load { dst = r 1; src = mem 2 Width.W32; sign = Rtl.Signed });
  Func.append f (Rtl.Label "L2");
  Func.append f (Rtl.Binop (Rtl.Add, r 3, Rtl.Reg (r 1), Rtl.Reg (r 2)));
  Func.append f (Rtl.Ret (Some (Rtl.Reg (r 3))));
  List.iter
    (fun machine ->
      let what = "mixed defs/" ^ machine.Machine.name in
      check_stall_sets ~what machine f;
      let fn = decoded machine [ f ] "main" in
      Alcotest.(check bool) (what ^ ": ALU def records its ready time") true
        fn.Decode.code.(1).Decode.sets_ready;
      Alcotest.(check (array int)) (what ^ ": cross-block read stalls on r1")
        [| 1 |] fn.Decode.code.(6).Decode.reads;
      match agree ~machine ~what [ f ] [ 1024L ] with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s trapped: %s" what m)
    machines

(* A multiply whose result is used by the next instruction and again in
   the next block. On the mc68030 its issue (28) covers its latency
   (mul_latency 28), so it can never stall and no stall set holds it; on
   the Alpha (issue 5, latency 6) it can, and both reads stall on it. *)
let test_multiply_latency () =
  let f = Func.create ~name:"main" ~params:[ r 0; r 1 ] in
  Func.append f (Rtl.Binop (Rtl.Mul, r 2, Rtl.Reg (r 0), Rtl.Reg (r 1)));
  Func.append f (Rtl.Binop (Rtl.Add, r 3, Rtl.Reg (r 2), Rtl.Imm 1L));
  Func.append f (Rtl.Label "L1");
  Func.append f (Rtl.Binop (Rtl.Sub, r 4, Rtl.Reg (r 2), Rtl.Reg (r 3)));
  Func.append f (Rtl.Ret (Some (Rtl.Reg (r 4))));
  List.iter
    (fun (machine, stalls) ->
      let what = "multiply/" ^ machine.Machine.name in
      check_stall_sets ~what machine f;
      let fn = decoded machine [ f ] "main" in
      Alcotest.(check (array int)) (what ^ ": next instruction's stall set")
        (if stalls then [| 2 |] else [||]) fn.Decode.code.(1).Decode.reads;
      Alcotest.(check (array int)) (what ^ ": next block's stall set")
        (if stalls then [| 2 |] else [||]) fn.Decode.code.(3).Decode.reads;
      match agree ~machine ~what [ f ] [ 7L; -3L ] with
      | Ok (v, _) -> Alcotest.(check int64) (what ^ ": value") (-1L) v
      | Error m -> Alcotest.failf "%s trapped: %s" what m)
    [ (Machine.mc68030, false); (Machine.alpha, true) ]

(* A load and an extract at the byte position in a register (the Alpha
   Q[r]u + EXTHs[v, r] idiom), which the jit fuses, on a misaligned
   address: the Alpha's aligned longword load traps there, while its
   quadword load and the mc68030's longword load proceed at a penalty;
   all on the slow path, all exactly as in the oracle. *)
let test_fused_extract_misaligned () =
  let program width =
    let f = Func.create ~name:"main" ~params:[ r 0 ] in
    Func.append f (Rtl.Load { dst = r 1; src = mem 0 width; sign = Rtl.Unsigned });
    Func.append f
      (Rtl.Extract
         { dst = r 2; src = r 1; pos = Rtl.Reg (r 0); width = Width.W16;
           sign = Rtl.Signed });
    Func.append f (Rtl.Ret (Some (Rtl.Reg (r 2))));
    f
  in
  let fused machine f =
    (* the extract stalls on the loaded register alone: the fused shape *)
    let fn = decoded machine [ f ] "main" in
    Alcotest.(check (array int)) "extract stalls on the load only" [| 1 |]
      fn.Decode.code.(1).Decode.reads
  in
  let f = program Width.W32 in
  fused Machine.alpha f;
  (match agree ~machine:Machine.alpha ~what:"alpha longword" [ f ] [ 1026L ] with
  | Ok (v, _) -> Alcotest.failf "misaligned longword returned %Ld" v
  | Error m ->
    if not (String.length m >= 10 && String.sub m 0 10 = "misaligned") then
      Alcotest.failf "unexpected trap %S" m);
  List.iter
    (fun (machine, width) ->
      let f = program width in
      fused machine f;
      match agree ~machine ~what:machine.Machine.name [ f ] [ 1026L ] with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: tolerated access trapped: %s"
                     machine.Machine.name m)
    [ (Machine.alpha, Width.W64); (Machine.mc68030, Width.W32) ]

(* Division and remainder by a register and by an immediate: the
   specialized closures divide with the [Int64] primitives, whose
   division by zero must still become the oracle's trap. *)
let test_division () =
  let program op b =
    let f = Func.create ~name:"main" ~params:[ r 0; r 1 ] in
    Func.append f (Rtl.Binop (op, r 2, Rtl.Reg (r 0), b));
    Func.append f (Rtl.Ret (Some (Rtl.Reg (r 2))));
    [ f ]
  in
  List.iter
    (fun (op, name, expected) ->
      List.iter
        (fun (shape, divisor, args) ->
          let what = Printf.sprintf "%s %s" name shape in
          (match agree ~what (program op divisor) args with
          | Ok (v, _) -> Alcotest.(check int64) what expected v
          | Error m -> Alcotest.failf "%s trapped: %s" what m);
          match agree ~what:(what ^ " by zero") (program op divisor) [ -7L; 0L ]
          with
          | Ok (v, _) when shape = "imm" ->
            Alcotest.(check int64) (what ^ " keeps its divisor") expected v
          | Ok (v, _) -> Alcotest.failf "%s by zero returned %Ld" what v
          | Error m ->
            Alcotest.(check string) (what ^ " by zero") "division by zero in main" m)
        [ ("reg", Rtl.Reg (r 1), [ -7L; 2L ]); ("imm", Rtl.Imm 2L, [ -7L; 5L ]) ];
      match agree ~what:(name ^ " imm zero") (program op (Rtl.Imm 0L)) [ 1L; 1L ]
      with
      | Ok (v, _) -> Alcotest.failf "%s by immediate zero returned %Ld" name v
      | Error m ->
        Alcotest.(check string) (name ^ " imm zero") "division by zero in main" m)
    [ (Rtl.Div, "div", -3L); (Rtl.Rem, "rem", -1L) ]

(* Every binop and every branch comparison, in every operand shape
   (register or immediate on either side), on edge values: each shape
   has its own closure body, and the jit must agree with the oracle on
   all of them, traps included. *)
let test_every_op_and_shape () =
  let values = [ 0L; 1L; -1L; 2L; -7L; 63L; 64L; 0x80L; Int64.max_int; Int64.min_int ] in
  let operand reg v = if reg then Rtl.Reg (r 0) else Rtl.Imm v in
  let operand2 reg v = if reg then Rtl.Reg (r 1) else Rtl.Imm v in
  let shapes = [ (true, true); (true, false); (false, true); (false, false) ] in
  let binop_fn op (ra, rb) a b =
    let f = Func.create ~name:"main" ~params:[ r 0; r 1 ] in
    Func.append f (Rtl.Binop (op, r 2, operand ra a, operand2 rb b));
    Func.append f (Rtl.Ret (Some (Rtl.Reg (r 2))));
    [ f ]
  in
  let branch_fn cmp (ra, rb) a b =
    let f = Func.create ~name:"main" ~params:[ r 0; r 1 ] in
    Func.append f
      (Rtl.Branch { cmp; l = operand ra a; r = operand2 rb b; target = "L" });
    Func.append f (Rtl.Ret (Some (Rtl.Imm 0L)));
    Func.append f (Rtl.Label "L");
    Func.append f (Rtl.Ret (Some (Rtl.Imm 1L)));
    [ f ]
  in
  let cmps = Rtl.[ Eq; Ne; Lt; Le; Gt; Ge; Ltu; Leu; Gtu; Geu ] in
  let binops =
    Rtl.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Lshr; Ashr ]
    @ List.map (fun c -> Rtl.Cmp c) cmps
  in
  List.iter
    (fun shape ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              List.iter
                (fun op ->
                  ignore (agree ~what:"binop" (binop_fn op shape a b) [ a; b ]))
                binops;
              List.iter
                (fun cmp ->
                  ignore (agree ~what:"branch" (branch_fn cmp shape a b) [ a; b ]))
                cmps)
            values)
        values)
    shapes

(* Over random kernels at every level, on every machine: each slot's
   stall set and ready flag are exactly what the RTL says. *)
let prop_stall_sets machine =
  QCheck.Test.make
    ~name:(Printf.sprintf "stall sets are the slow reads on %s" machine.Machine.name)
    ~count:30 arbitrary_kernel
    (fun k ->
      List.iter
        (fun level ->
          let compiled =
            Pipeline.compile_source (Pipeline.config ~level machine) (kernel_src k)
          in
          List.iter
            (fun (f : Func.t) ->
              check_stall_sets ~what:(Pipeline.level_to_string level) machine f)
            compiled.funcs)
        levels;
      true)

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
      Test32.machine with
      name = "icp";
      icache_miss_penalty = 7;
      dcache = { Test32.machine.dcache with miss_penalty = 100 };
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
          Alcotest.test_case "compare+branch as final instruction"
            `Quick test_cmp_branch_final;
          Alcotest.test_case "fused load takes the misaligned slow path"
            `Quick test_fused_load_misaligned;
          Alcotest.test_case "fused register-position extract, misaligned"
            `Quick test_fused_extract_misaligned;
          Alcotest.test_case "division by zero traps like the oracle" `Quick
            test_division;
          Alcotest.test_case "every binop and comparison, every shape" `Quick
            test_every_op_and_shape;
          Alcotest.test_case "out of fuel traps like the oracle"
            `Quick test_out_of_fuel;
        ] );
      ( "stall sets",
        [
          Alcotest.test_case "a register with a load and an ALU def" `Quick
            test_mixed_defs;
          Alcotest.test_case "multiply latency against issue" `Quick
            test_multiply_latency;
        ]
        @ List.map
            (fun m -> QCheck_alcotest.to_alcotest (prop_stall_sets m))
            machines );
      ( "tables",
        [ Alcotest.test_case "rows independent of worker count" `Quick
            test_tables_determinism ] );
    ]
