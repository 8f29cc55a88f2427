(* The jit (pre-decoded, superblock closure) engine must be
   bit-identical to the reference tree-walker: same return value, same
   final heap, and the same metrics down to every counter — cycles,
   stall-sensitive load/store accounting, icache misses at synthetic
   fetch addresses, and per-label visit counts. Checked two ways: every
   packaged workload on every machine at every optimization level, and a
   qcheck sweep over random MiniC loop kernels with random (skewed,
   possibly overlapping) buffer layouts — with icache modelling both off
   (superinstruction fusion active) and on (per-fetch generic closures).
   Dedicated corner cases pin the jit's block-cache and fusion edges:
   zero-trip loops, a fused compare+branch as the final instruction, and
   a fused load that traps on the misaligned slow path. *)

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
    Alcotest.failf "%s: final heap differs between engines" what;
  if rj.metrics <> rr.metrics then
    Alcotest.failf "%s: metrics differ\n  jit: %s\n  ref: %s" what
      (pp_metrics rj.metrics) (pp_metrics rr.metrics)

(* --- every workload x machine x level x icache mode ----------------- *)

let run_bench (b : W.t) ~machine ~level ~model_icache ~engine =
  let cfg = Pipeline.config ~level machine in
  let compiled = Pipeline.compile_source cfg b.source in
  let mem = Memory.create ~size:(1 lsl 18) in
  let inst = b.prepare W.default_layout ~size:16 mem in
  let r =
    Interp.run ~machine ~memory:mem compiled.funcs ~entry:b.entry
      ~args:inst.args ~model_icache ~engine ()
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
                    run_bench b ~machine ~level ~model_icache
                      ~engine:`Reference
                  in
                  let rj, hj =
                    run_bench b ~machine ~level ~model_icache ~engine:`Jit
                  in
                  check_equal ~what:(what ^ "/jit") rj rr hj hr)
                [ false; true ])
            levels)
        machines)
    (W.dotproduct :: W.all)

(* --- random MiniC kernels (same shape as test_props) ---------------- *)

type elem = Echar | Euchar | Eshort | Eushort | Eint

let elem_src = function
  | Echar -> "char"
  | Euchar -> "unsigned char"
  | Eshort -> "short"
  | Eushort -> "unsigned short"
  | Eint -> "int"

let elem_bytes = function Echar | Euchar -> 1 | Eshort | Eushort -> 2 | Eint -> 4

type expr = Load of int * int | Index | Lit of int | Bin of string * expr * expr

type stmt = {
  dst : int;
  dst_off : int;
  rhs : expr;
  in_place_op : string option;
}

type kernel = {
  elems : elem array;
  stmts : stmt list;
  n : int;
  bases : int array;
}

let kernel_src k =
  let rec expr_src = function
    | Load (a, off) ->
      Printf.sprintf "%c[i + %d]" (Char.chr (Char.code 'a' + a)) off
    | Index -> "i"
    | Lit v -> Printf.sprintf "%d" v
    | Bin (op, x, y) ->
      Printf.sprintf "(%s %s %s)" (expr_src x) op (expr_src y)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "void kernel(";
  Array.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf "%s %c[], " (elem_src e)
           (Char.chr (Char.code 'a' + i))))
    k.elems;
  Buffer.add_string buf "int n) {\n  int i;\n  for (i = 0; i < n; i++) {\n";
  List.iter
    (fun s ->
      let lhs =
        Printf.sprintf "%c[i + %d]"
          (Char.chr (Char.code 'a' + s.dst))
          s.dst_off
      in
      match s.in_place_op with
      | Some op ->
        Buffer.add_string buf
          (Printf.sprintf "    %s %s= %s;\n" lhs op (expr_src s.rhs))
      | None ->
        Buffer.add_string buf
          (Printf.sprintf "    %s = %s;\n" lhs (expr_src s.rhs)))
    k.stmts;
  Buffer.add_string buf "  }\n}\n";
  Buffer.contents buf

let gen_kernel =
  let open QCheck.Gen in
  let gen_expr =
    let rec go depth =
      if depth = 0 then
        oneof
          [
            map2 (fun a off -> Load (a, off)) (int_bound 2) (int_bound 2);
            return Index;
            map (fun v -> Lit (v - 32)) (int_bound 64);
          ]
      else
        frequency
          [
            (2, go 0);
            ( 3,
              let* op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
              let* x = go (depth - 1) in
              let* y = go (depth - 1) in
              return (Bin (op, x, y)) );
          ]
    in
    go 2
  in
  let gen_stmt =
    let* dst = int_bound 2 in
    let* dst_off = int_bound 2 in
    let* rhs = gen_expr in
    let* in_place =
      frequency
        [ (3, return None); (1, map Option.some (oneofl [ "+"; "^"; "&" ])) ]
    in
    return { dst; dst_off; rhs; in_place_op = in_place }
  in
  let* elems =
    array_repeat 3 (oneofl [ Echar; Euchar; Eshort; Eushort; Eint ])
  in
  let* stmts = list_size (int_range 1 4) gen_stmt in
  let* n = int_range 1 40 in
  let* skew_units = array_repeat 3 (int_bound 7) in
  let* raw_bases = array_repeat 3 (int_range 0 2) in
  let* spread = oneofl [ 512; 64 ] in
  let bases =
    Array.mapi
      (fun i r -> 1024 + (r * spread) + (skew_units.(i) * elem_bytes elems.(i) mod 8))
      raw_bases
  in
  return { elems; stmts; n; bases }

let arbitrary_kernel =
  QCheck.make
    ~print:(fun k ->
      Printf.sprintf "%s\nn=%d bases=%s" (kernel_src k) k.n
        (String.concat ","
           (Array.to_list (Array.map string_of_int k.bases))))
    gen_kernel

let mem_size = 8192

let fresh_memory k =
  let mem = Memory.create ~size:mem_size in
  let seed = ref (Hashtbl.hash (kernel_src k, k.n, k.bases)) in
  for addr = 8 to mem_size - 1 do
    seed := (!seed * 1103515245) + 12345;
    Memory.store mem ~addr:(Int64.of_int addr) ~width:Width.W8
      (Int64.of_int (!seed lsr 16 land 0xFF))
  done;
  mem

let run_kernel k ~machine ~level ~model_icache ~engine =
  let cfg = Pipeline.config ~level machine in
  let compiled = Pipeline.compile_source cfg (kernel_src k) in
  let mem = fresh_memory k in
  let args =
    Array.to_list (Array.map Int64.of_int k.bases) @ [ Int64.of_int k.n ]
  in
  match
    Interp.run ~machine ~memory:mem compiled.funcs ~entry:"kernel" ~args
      ~model_icache ~engine ()
  with
  | r -> Ok (r, Memory.load_bytes mem ~addr:8L ~len:(mem_size - 9))
  | exception Interp.Trap msg -> Error msg

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
                ( run_kernel k ~machine ~level ~model_icache ~engine:`Jit,
                  run_kernel k ~machine ~level ~model_icache
                    ~engine:`Reference )
              with
              | Ok (rj, hj), Ok (rr, hr) ->
                Int64.equal rj.Interp.value rr.Interp.value
                && Bytes.equal hj hr
                && rj.metrics = rr.metrics
              | Error mj, Error mr ->
                (* both engines must trap with the very same message *)
                String.equal mj mr
              | Ok _, Error _ | Error _, Ok _ -> false)
            [ false; true ])
        levels)

(* --- jit corner cases ------------------------------------------------ *)

let run_raw ?(machine = Machine.alpha) program ~args ~engine =
  let memory = Memory.create ~size:4096 in
  match
    Interp.run ~machine ~memory program ~entry:"main" ~args ~engine ()
  with
  | r -> Ok (r.Interp.value, r.Interp.metrics)
  | exception Interp.Trap msg -> Error msg

let agree ?machine ~what program args =
  let expected = run_raw ?machine program ~args ~engine:`Reference in
  if run_raw ?machine program ~args ~engine:`Jit <> expected then
    Alcotest.failf "%s: jit disagrees with reference" what;
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
          let run engine =
            match run_kernel k ~machine ~level ~model_icache:false ~engine with
            | Ok ((r : Interp.result), h) -> Ok ((r.value, r.metrics), h)
            | Error m -> Error m
          in
          if run `Jit <> run `Reference then
            Alcotest.failf "%s: jit disagrees with reference" what)
        levels)
    machines

(* A compare + branch pair as the very last instructions of a function —
   the jit fuses them, and the fall-through successor of the fused pair
   is the fell-off-the-end trap. Taken, the branch exits through an
   earlier label and returns; not taken, both engines must trap with the
   identical message. *)
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
     must hit the fell-off-the-end trap on both engines *)
  match agree ~what:"cmp+branch fall-off" (cmp_branch_final ()) [ 6L ] with
  | Ok (v, _) ->
    Alcotest.failf "cmp+branch fall-off returned %Ld instead of trapping" v
  | Error m ->
    if not (String.length m >= 8 && String.sub m 0 8 = "fell off") then
      Alcotest.failf "unexpected trap %S" m

(* An address-compute + load pair the jit fuses; the computed address is
   misaligned, so the inlined cache fast path must reject it and the
   slow path must raise the same trap as the reference engine. *)
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
   loop, and both engines trap with the same message. *)
let test_out_of_fuel () =
  let bench = Option.get (W.find "image_add") in
  let compiled =
    Pipeline.compile_source
      (Pipeline.config ~level:Pipeline.O4 Machine.alpha)
      bench.W.source
  in
  let trap engine =
    match
      Interp.run ~machine:Machine.alpha
        ~memory:(Memory.create ~size:(1 lsl 16))
        compiled.funcs ~entry:bench.W.entry
        ~args:[ 64L; 4096L; 8192L; 1024L ]
        ~fuel:100 ~engine ()
    with
    | _ ->
      Alcotest.failf "the %s engine finished on 100 fuel"
        (Interp.engine_name engine)
    | exception Interp.Trap msg -> msg
  in
  Alcotest.(check string) "reference trap" "out of fuel in image_add"
    (trap `Reference);
  Alcotest.(check string) "jit trap" "out of fuel in image_add" (trap `Jit)

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
    (fun engine ->
      let memory = Memory.create ~size:4096 in
      let r =
        Interp.run ~machine ~memory [ f ] ~entry:"main" ~args:[]
          ~model_icache:true ~engine ()
      in
      (* both instructions fetch from the same 32-byte line: one miss.
         cycles = miss penalty (7) + move issue (1) + ret issue (1) *)
      Alcotest.(check int) "icache miss count" 1 r.metrics.icache_misses;
      Alcotest.(check int) "cycles use icache penalty" 9 r.metrics.cycles)
    [ `Reference; `Jit ]

(* Callers that omit [?engine] (Workloads.run, Tables, mcc) get
   the jit: the same metrics as an explicit [`Jit] run, and a closure
   compile phase the reference engine never reports. *)
let test_default_is_jit () =
  let f = cmp_branch_final () in
  let run ?engine () =
    Interp.run ~machine:Machine.alpha ~memory:(Memory.create ~size:4096) f
      ~entry:"main" ~args:[ 5L ] ?engine ()
  in
  let d = run () and j = run ~engine:`Jit () in
  Alcotest.(check string) "default engine" "jit"
    (Interp.engine_name Interp.default_engine);
  if d.metrics <> j.metrics then
    Alcotest.fail "default run's metrics differ from an explicit jit run";
  if not (List.assoc "compile" d.phases > 0.0) then
    Alcotest.fail "default run reports no closure compile time"

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
      ( "default",
        [ Alcotest.test_case "omitting ?engine runs the jit" `Quick
            test_default_is_jit ] );
      ( "jit corners",
        [
          Alcotest.test_case "zero-trip loop agrees on both engines" `Quick
            test_zero_trip;
          Alcotest.test_case "fused compare+branch as final instruction"
            `Quick test_cmp_branch_final;
          Alcotest.test_case "fused load takes the misaligned slow path"
            `Quick test_fused_load_misaligned;
          Alcotest.test_case "out of fuel traps alike on both engines"
            `Quick test_out_of_fuel;
        ] );
      ( "tables",
        [ Alcotest.test_case "rows independent of worker count" `Quick
            test_tables_determinism ] );
    ]
