(* Tests for the simulator substrate: memory, cache, interpreter. *)

open Mac_rtl
module Memory = Mac_sim.Memory
module Cache = Mac_sim.Cache
module Interp = Mac_sim.Interp
module Machine = Mac_machine.Machine

let reg = Reg.make

(* How many times a run entered label [l]. *)
let label_count (m : Interp.metrics) l =
  Option.value (List.assoc_opt l m.label_counts) ~default:0

let func_of ?(name = "t") ?(params = []) kinds =
  let f = Func.create ~name ~params in
  List.iter (Func.append f) kinds;
  f

let run ?(machine = Test32.machine) ?(mem_size = 4096) ?memory ?(args = [])
    program =
  let memory =
    match memory with Some m -> m | None -> Memory.create ~size:mem_size
  in
  Interp.run ~machine ~memory program ~entry:"t" ~args ()

(* --- memory --- *)

let test_memory_roundtrip () =
  let mem = Memory.create ~size:1024 in
  List.iter
    (fun (w, v) ->
      Memory.store mem ~addr:64L ~width:w v;
      Alcotest.(check int64) "unsigned roundtrip" (Width.zero_extend w v)
        (Memory.load mem ~addr:64L ~width:w ~sign:Rtl.Unsigned);
      Alcotest.(check int64) "signed roundtrip" (Width.sign_extend w v)
        (Memory.load mem ~addr:64L ~width:w ~sign:Rtl.Signed))
    [ (Width.W8, 0xF3L); (Width.W16, 0xFEDCL); (Width.W32, 0xDEADBEEFL);
      (Width.W64, -2L) ]

let test_memory_little_endian () =
  let mem = Memory.create ~size:1024 in
  Memory.store mem ~addr:100L ~width:Width.W32 0x11223344L;
  Alcotest.(check int64) "low byte first" 0x44L
    (Memory.load mem ~addr:100L ~width:Width.W8 ~sign:Rtl.Unsigned);
  Alcotest.(check int64) "high byte last" 0x11L
    (Memory.load mem ~addr:103L ~width:Width.W8 ~sign:Rtl.Unsigned);
  Alcotest.(check int64) "halfword spans" 0x2233L
    (Memory.load mem ~addr:101L ~width:Width.W16 ~sign:Rtl.Unsigned)

let test_memory_bounds () =
  let mem = Memory.create ~size:256 in
  let faulting f = try ignore (f ()); false with Memory.Fault _ -> true in
  Alcotest.(check bool) "low guard" true
    (faulting (fun () ->
         Memory.load mem ~addr:0L ~width:Width.W8 ~sign:Rtl.Unsigned));
  Alcotest.(check bool) "past the end" true
    (faulting (fun () ->
         Memory.load mem ~addr:255L ~width:Width.W32 ~sign:Rtl.Unsigned));
  Alcotest.(check bool) "negative" true
    (faulting (fun () -> Memory.store mem ~addr:(-8L) ~width:Width.W8 1L))

let test_allocator () =
  let mem = Memory.create ~size:65536 in
  let a = Memory.allocator mem in
  let b1 = Memory.alloc a ~align:8 100 in
  let b2 = Memory.alloc a ~align:8 100 in
  Alcotest.(check int64) "aligned" 0L (Int64.rem b1 8L);
  Alcotest.(check int64) "aligned 2" 0L (Int64.rem b2 8L);
  Alcotest.(check bool) "disjoint" true
    (Int64.compare (Int64.add b1 100L) b2 <= 0);
  let m = Memory.alloc_misaligned a ~align:8 ~skew:2 16 in
  Alcotest.(check int64) "skewed by 2" 2L (Int64.rem m 8L)

let test_memory_bytes () =
  let mem = Memory.create ~size:1024 in
  let data = Bytes.of_string "hello world" in
  Memory.store_bytes mem ~addr:50L data;
  Alcotest.(check bytes) "blit roundtrip" data
    (Memory.load_bytes mem ~addr:50L ~len:(Bytes.length data))

(* --- cache --- *)

let test_cache_basics () =
  let c = Cache.create { size_bytes = 64; line_bytes = 16; miss_penalty = 10 } in
  Alcotest.(check bool) "cold miss" true (Cache.access c 0L = `Miss);
  Alcotest.(check bool) "same line hits" true (Cache.access c 8L = `Hit);
  Alcotest.(check bool) "next line misses" true (Cache.access c 16L = `Miss);
  (* 4 lines of 16 bytes: address 64 conflicts with address 0 *)
  Alcotest.(check bool) "conflict evicts" true (Cache.access c 64L = `Miss);
  Alcotest.(check bool) "evicted line misses again" true
    (Cache.access c 0L = `Miss);
  Alcotest.(check int) "hit count" 1 (Cache.hits c);
  Alcotest.(check int) "miss count" 4 (Cache.misses c)

(* --- interpreter --- *)

let test_interp_arith () =
  let f =
    func_of
      [
        Rtl.Move (reg 0, Rtl.Imm 6L);
        Rtl.Binop (Rtl.Mul, reg 1, Rtl.Reg (reg 0), Rtl.Imm 7L);
        Rtl.Ret (Some (Rtl.Reg (reg 1)));
      ]
  in
  Alcotest.(check int64) "6*7" 42L (run [ f ]).value

let test_interp_control_flow () =
  (* sum 1..n with a loop *)
  let f =
    func_of ~params:[ reg 0 ]
      [
        Rtl.Move (reg 1, Rtl.Imm 0L);
        Rtl.Move (reg 2, Rtl.Imm 1L);
        Rtl.Label "L";
        Rtl.Binop (Rtl.Add, reg 1, Rtl.Reg (reg 1), Rtl.Reg (reg 2));
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Le; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 0);
            target = "L" };
        Rtl.Ret (Some (Rtl.Reg (reg 1)));
      ]
  in
  Alcotest.(check int64) "sum 1..10" 55L (run ~args:[ 10L ] [ f ]).value

let test_interp_memory_and_metrics () =
  let mem = Memory.create ~size:4096 in
  Memory.store mem ~addr:128L ~width:Width.W16 0x8000L;
  let f =
    func_of
      [
        Rtl.Move (reg 0, Rtl.Imm 128L);
        Rtl.Load
          { dst = reg 1;
            src = { base = reg 0; disp = 0L; width = Width.W16;
                    aligned = true };
            sign = Rtl.Signed };
        Rtl.Store
          { src = Rtl.Reg (reg 1);
            dst = { base = reg 0; disp = 8L; width = Width.W64;
                    aligned = true } };
        Rtl.Ret (Some (Rtl.Reg (reg 1)));
      ]
  in
  let r = run ~memory:mem [ f ] in
  Alcotest.(check int64) "sign extension on load" (-32768L) r.value;
  Alcotest.(check int64) "store wrote 8 bytes" (-32768L)
    (Memory.load mem ~addr:136L ~width:Width.W64 ~sign:Rtl.Signed);
  Alcotest.(check int) "one load" 1 r.metrics.loads;
  Alcotest.(check int) "one store" 1 r.metrics.stores

let test_interp_extract_insert () =
  let f =
    func_of
      [
        Rtl.Move (reg 0, Rtl.Imm 0x1122334455667788L);
        Rtl.Extract
          { dst = reg 1; src = reg 0; pos = Rtl.Imm 2L; width = Width.W16;
            sign = Rtl.Unsigned };
        Rtl.Move (reg 2, Rtl.Imm 0L);
        Rtl.Insert
          { dst = reg 2; src = Rtl.Reg (reg 1); pos = Rtl.Imm 6L;
            width = Width.W16 };
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ]
  in
  Alcotest.(check int64) "extract then insert" 0x5566000000000000L
    (run [ f ]).value

let test_interp_unaligned_container () =
  (* LDQ_U-style access: loads the enclosing quadword *)
  let mem = Memory.create ~size:4096 in
  Memory.store mem ~addr:128L ~width:Width.W64 0x8877665544332211L;
  let f =
    func_of
      [
        Rtl.Move (reg 0, Rtl.Imm 133L);
        Rtl.Load
          { dst = reg 1;
            src = { base = reg 0; disp = 0L; width = Width.W64;
                    aligned = false };
            sign = Rtl.Unsigned };
        Rtl.Ret (Some (Rtl.Reg (reg 1)));
      ]
  in
  Alcotest.(check int64) "container fetched" 0x8877665544332211L
    (run ~machine:Machine.alpha ~memory:mem [ f ]).value

let expect_trap ?machine ?memory ?args program pattern =
  match run ?machine ?memory ?args program with
  | exception Interp.Trap msg ->
    Alcotest.(check bool)
      (Printf.sprintf "trap mentions %S (got %S)" pattern msg)
      true
      (let len_p = String.length pattern in
       let rec contains i =
         i + len_p <= String.length msg
         && (String.equal (String.sub msg i len_p) pattern || contains (i + 1))
       in
       contains 0)
  | _ -> Alcotest.fail "expected a trap"

let test_interp_traps () =
  let misaligned =
    func_of
      [
        Rtl.Move (reg 0, Rtl.Imm 129L);
        Rtl.Load
          { dst = reg 1;
            src = { base = reg 0; disp = 0L; width = Width.W32;
                    aligned = true };
            sign = Rtl.Unsigned };
        Rtl.Ret None;
      ]
  in
  expect_trap ~machine:Machine.mc88100 [ misaligned ] "misaligned";
  let illegal_width =
    func_of
      [
        Rtl.Move (reg 0, Rtl.Imm 128L);
        Rtl.Load
          { dst = reg 1;
            src = { base = reg 0; disp = 0L; width = Width.W16;
                    aligned = true };
            sign = Rtl.Unsigned };
        Rtl.Ret None;
      ]
  in
  expect_trap ~machine:Machine.alpha [ illegal_width ] "illegal";
  let div_zero =
    func_of
      [
        Rtl.Binop (Rtl.Div, reg 0, Rtl.Imm 1L, Rtl.Imm 0L);
        Rtl.Ret None;
      ]
  in
  expect_trap [ div_zero ] "division by zero";
  let infinite = func_of [ Rtl.Label "L"; Rtl.Jump "L" ] in
  (match
     Interp.run ~machine:Test32.machine ~memory:(Memory.create ~size:256)
       [ infinite ] ~entry:"t" ~args:[] ~fuel:1000 ()
   with
  | exception Interp.Trap msg ->
    Alcotest.(check bool) "fuel exhaustion" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected fuel trap");
  expect_trap [ func_of [ Rtl.Call { dst = None; func = "nope"; args = [] };
                          Rtl.Ret None ] ]
    "undefined function"

let test_interp_misaligned_tolerated_on_68030 () =
  let mem = Memory.create ~size:4096 in
  Memory.store mem ~addr:129L ~width:Width.W32 0xAABBCCDDL;
  let f =
    func_of
      [
        Rtl.Move (reg 0, Rtl.Imm 129L);
        Rtl.Load
          { dst = reg 1;
            src = { base = reg 0; disp = 0L; width = Width.W32;
                    aligned = true };
            sign = Rtl.Unsigned };
        Rtl.Ret (Some (Rtl.Reg (reg 1)));
      ]
  in
  Alcotest.(check int64) "68030 reads misaligned words" 0xAABBCCDDL
    (run ~machine:Machine.mc68030 ~memory:mem [ f ]).value

let test_interp_calls () =
  let callee =
    let f = Func.create ~name:"double" ~params:[ reg 0 ] in
    Func.append f
      (Rtl.Binop (Rtl.Add, reg 1, Rtl.Reg (reg 0), Rtl.Reg (reg 0)));
    Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 1))));
    f
  in
  let caller =
    func_of
      [
        Rtl.Call { dst = Some (reg 0); func = "double"; args = [ Rtl.Imm 21L ] };
        Rtl.Ret (Some (Rtl.Reg (reg 0)));
      ]
  in
  Alcotest.(check int64) "call" 42L (run [ caller; callee ]).value

let test_label_counts () =
  let f =
    func_of ~params:[ reg 0 ]
      [
        Rtl.Label "Lhead";
        Rtl.Binop (Rtl.Sub, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Gt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L;
            target = "Lhead" };
        Rtl.Label "Ldone";
        Rtl.Ret None;
      ]
  in
  let r = run ~args:[ 5L ] [ f ] in
  Alcotest.(check int) "loop label count" 5
    (label_count r.metrics "Lhead");
  Alcotest.(check int) "exit label count" 1
    (label_count r.metrics "Ldone");
  Alcotest.(check int) "unknown label" 0
    (label_count r.metrics "Lnothere")

let test_cycles_monotone_in_costs () =
  (* the same program is never cheaper on the 68030 than on Test32.machine *)
  let f =
    func_of ~params:[ reg 0 ]
      [
        Rtl.Label "L";
        Rtl.Binop (Rtl.Sub, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Gt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L; target = "L" };
        Rtl.Ret None;
      ]
  in
  let cyc machine = (run ~machine ~args:[ 100L ] [ f ]).metrics.cycles in
  Alcotest.(check bool) "68030 slower" true
    (cyc Machine.mc68030 > cyc Test32.machine)

let test_interp_stack_frames () =
  (* nested calls each get their own spill frame (the allocator sets
     frame_bytes/fp_reg; here we hand-build the same contract) *)
  let callee =
    let f = Func.create ~name:"leaf" ~params:[ reg 0 ] in
    let fp = reg 9 in
    f.Func.frame_bytes <- 16;
    f.Func.fp_reg <- Some fp;
    List.iter (Func.append f)
      [
        (* spill the argument, reload it doubled *)
        Rtl.Store
          { src = Rtl.Reg (reg 0);
            dst = { base = fp; disp = 0L; width = Width.W64;
                    aligned = true } };
        Rtl.Load
          { dst = reg 1;
            src = { base = fp; disp = 0L; width = Width.W64;
                    aligned = true };
            sign = Rtl.Unsigned };
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 1), Rtl.Reg (reg 1));
        Rtl.Ret (Some (Rtl.Reg (reg 2)));
      ];
    f
  in
  let caller =
    let f = Func.create ~name:"t" ~params:[ reg 0 ] in
    let fp = reg 9 in
    f.Func.frame_bytes <- 16;
    f.Func.fp_reg <- Some fp;
    List.iter (Func.append f)
      [
        (* keep a value in this frame across the call *)
        Rtl.Store
          { src = Rtl.Reg (reg 0);
            dst = { base = fp; disp = 8L; width = Width.W64;
                    aligned = true } };
        Rtl.Call { dst = Some (reg 1); func = "leaf";
                   args = [ Rtl.Imm 21L ] };
        Rtl.Load
          { dst = reg 2;
            src = { base = fp; disp = 8L; width = Width.W64;
                    aligned = true };
            sign = Rtl.Unsigned };
        Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 1), Rtl.Reg (reg 2));
        Rtl.Ret (Some (Rtl.Reg (reg 3)));
      ];
    f
  in
  (* leaf(21) = 42; caller adds its own slot value 1000 preserved across
     the call: the frames must not alias *)
  Alcotest.(check int64) "disjoint frames" 1042L
    (run ~args:[ 1000L ] [ caller; callee ]).value

let test_icache_model () =
  (* a straight-line program longer than a tiny I-cache misses on every
     line once; a loop that fits hits after the first pass *)
  let tiny = { Test32.machine with icache_bytes = 64 } in
  let f =
    func_of ~params:[ reg 0 ]
      [
        Rtl.Label "L";
        Rtl.Binop (Rtl.Sub, reg 0, Rtl.Reg (reg 0), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Gt; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L; target = "L" };
        Rtl.Ret None;
      ]
  in
  let run model_icache =
    Interp.run ~machine:tiny ~memory:(Memory.create ~size:256) [ f ]
      ~entry:"t" ~args:[ 100L ] ~model_icache ()
  in
  let off = run false and on = run true in
  Alcotest.(check int) "off: no fetch misses recorded" 0
    off.metrics.icache_misses;
  (* the 2-instruction loop fits one line: compulsory misses only *)
  Alcotest.(check bool) "on: compulsory misses only" true
    (on.metrics.icache_misses >= 1 && on.metrics.icache_misses <= 2);
  Alcotest.(check bool) "fetch misses cost cycles" true
    (on.metrics.cycles >= off.metrics.cycles);
  Alcotest.(check int64) "semantics unchanged" off.value on.value

(* Property: memory store-then-load identity at random addresses/widths. *)
let prop_store_load =
  QCheck.Test.make ~name:"store/load identity" ~count:500
    (QCheck.triple (QCheck.int_range 8 900) (QCheck.oneofl Width.all)
       QCheck.int64)
    (fun (addr, w, v) ->
      let mem = Memory.create ~size:1024 in
      Memory.store mem ~addr:(Int64.of_int addr) ~width:w v;
      Int64.equal
        (Memory.load mem ~addr:(Int64.of_int addr) ~width:w
           ~sign:Rtl.Unsigned)
        (Width.zero_extend w v))

(* Property: non-overlapping stores do not interfere. *)
let prop_disjoint_stores =
  QCheck.Test.make ~name:"disjoint stores do not interfere" ~count:500
    (QCheck.quad (QCheck.int_range 8 400) (QCheck.int_range 500 900)
       QCheck.int64 QCheck.int64)
    (fun (a1, a2, v1, v2) ->
      let mem = Memory.create ~size:1024 in
      Memory.store mem ~addr:(Int64.of_int a1) ~width:Width.W64 v1;
      Memory.store mem ~addr:(Int64.of_int a2) ~width:Width.W64 v2;
      Int64.equal
        (Memory.load mem ~addr:(Int64.of_int a1) ~width:Width.W64
           ~sign:Rtl.Unsigned)
        v1)

let () =
  Alcotest.run "sim"
    [
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "little endian" `Quick test_memory_little_endian;
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "allocator" `Quick test_allocator;
          Alcotest.test_case "bytes blit" `Quick test_memory_bytes;
        ] );
      ("cache", [ Alcotest.test_case "basics" `Quick test_cache_basics ]);
      ( "interp",
        [
          Alcotest.test_case "arith" `Quick test_interp_arith;
          Alcotest.test_case "control flow" `Quick test_interp_control_flow;
          Alcotest.test_case "memory + metrics" `Quick
            test_interp_memory_and_metrics;
          Alcotest.test_case "extract/insert" `Quick
            test_interp_extract_insert;
          Alcotest.test_case "unaligned container" `Quick
            test_interp_unaligned_container;
          Alcotest.test_case "traps" `Quick test_interp_traps;
          Alcotest.test_case "68030 misaligned tolerance" `Quick
            test_interp_misaligned_tolerated_on_68030;
          Alcotest.test_case "calls" `Quick test_interp_calls;
          Alcotest.test_case "label counts" `Quick test_label_counts;
          Alcotest.test_case "stack frames" `Quick test_interp_stack_frames;
          Alcotest.test_case "icache model" `Quick test_icache_model;
          Alcotest.test_case "cost monotonicity" `Quick
            test_cycles_monotone_in_costs;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_store_load; prop_disjoint_stores ] );
    ]
