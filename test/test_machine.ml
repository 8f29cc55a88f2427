(* Tests for the machine descriptions: the capability and cost facts the
   paper's cross-architecture results hinge on. *)

open Mac_rtl
module Machine = Mac_machine.Machine

let reg = Reg.make

let test_alpha_capabilities () =
  let m = Machine.alpha in
  Alcotest.(check bool) "no byte loads" false
    (Machine.legal_load m Width.W8 ~aligned:true);
  Alcotest.(check bool) "no shortword loads" false
    (Machine.legal_load m Width.W16 ~aligned:true);
  Alcotest.(check bool) "longword loads" true
    (Machine.legal_load m Width.W32 ~aligned:true);
  Alcotest.(check bool) "quadword loads" true
    (Machine.legal_load m Width.W64 ~aligned:true);
  Alcotest.(check bool) "unaligned quadword (LDQ_U)" true
    (Machine.legal_load m Width.W64 ~aligned:false);
  Alcotest.(check bool) "no unaligned longword" false
    (Machine.legal_load m Width.W32 ~aligned:false);
  Alcotest.(check bool) "no byte stores" false
    (Machine.legal_store m Width.W8 ~aligned:true)

let test_motorola_capabilities () =
  List.iter
    (fun m ->
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (Printf.sprintf "%s loads %s" m.Machine.name (Width.to_string w))
            true
            (Machine.legal_load m w ~aligned:true))
        [ Width.W8; Width.W16; Width.W32 ])
    [ Machine.mc88100; Machine.mc68030 ];
  Alcotest.(check bool) "88100 has no unaligned accesses" false
    (Machine.legal_load Machine.mc88100 Width.W16 ~aligned:false);
  Alcotest.(check bool) "68030 tolerates misaligned words" true
    (Machine.legal_load Machine.mc68030 Width.W32 ~aligned:false)

let test_widen_factors () =
  Alcotest.(check int) "alpha widens shorts by 4" 4
    (Machine.widen_factor Machine.alpha Width.W16);
  Alcotest.(check int) "alpha widens bytes by 8" 8
    (Machine.widen_factor Machine.alpha Width.W8);
  Alcotest.(check int) "88100 widens bytes by 4" 4
    (Machine.widen_factor Machine.mc88100 Width.W8);
  Alcotest.(check int) "88100 widens shorts by 2" 2
    (Machine.widen_factor Machine.mc88100 Width.W16);
  Alcotest.(check int) "word widens by 1" 1
    (Machine.widen_factor Machine.mc88100 Width.W32)

(* The cost relations that drive the paper's Table II/III/68030 contrast. *)
let test_cost_relations () =
  let load_cost m w = m.Machine.load_cost w ~aligned:true in
  (* Alpha: extract is as cheap as anything; wide loads same price as
     narrow (there are no narrow ones anyway). *)
  Alcotest.(check bool) "alpha extract cheap" true
    (Machine.alpha.extract_cost Width.W16 <= load_cost Machine.alpha Width.W64);
  (* 88100: a narrow load costs more than an extract, an insert costs more
     than a narrow store. *)
  Alcotest.(check bool) "88100 extract beats load" true
    (Machine.mc88100.extract_cost Width.W8 < load_cost Machine.mc88100 Width.W8);
  Alcotest.(check bool) "88100 has no native insert" false
    Machine.mc88100.has_native_insert;
  Alcotest.(check bool) "88100 insert dearer than store" true
    (Machine.mc88100.insert_cost Width.W8
    > Machine.mc88100.store_cost Width.W8 ~aligned:true);
  (* 68030: bit-field extraction is dearer than just loading narrow. *)
  Alcotest.(check bool) "68030 extract dearer than load" true
    (Machine.mc68030.extract_cost Width.W8 > load_cost Machine.mc68030 Width.W8)

let test_inst_cost () =
  let m = Test32.machine in
  Alcotest.(check int) "label free" 0 (Machine.inst_cost m (Rtl.Label "L"));
  Alcotest.(check int) "nop free" 0 (Machine.inst_cost m Rtl.Nop);
  Alcotest.(check int) "move" 1
    (Machine.inst_cost m (Rtl.Move (reg 0, Rtl.Imm 0L)));
  let load =
    Rtl.Load
      { dst = reg 0;
        src = { base = reg 1; disp = 0L; width = Width.W32; aligned = true };
        sign = Rtl.Unsigned }
  in
  Alcotest.(check int) "load" 1 (Machine.inst_cost m load);
  Alcotest.(check bool) "latency >= cost" true
    (Machine.latency m load >= Machine.inst_cost m load);
  Alcotest.(check bool) "alpha mul slower than add" true
    (Machine.inst_cost Machine.alpha
       (Rtl.Binop (Rtl.Mul, reg 0, Rtl.Imm 1L, Rtl.Imm 1L))
    > Machine.inst_cost Machine.alpha
        (Rtl.Binop (Rtl.Add, reg 0, Rtl.Imm 1L, Rtl.Imm 1L)))

let test_by_name () =
  List.iter
    (fun (m : Machine.t) ->
      match Machine.by_name m.name with
      | Some m' -> Alcotest.(check string) "roundtrip" m.name m'.Machine.name
      | None -> Alcotest.failf "lookup of %s failed" m.name)
    (Machine.all @ [ Test32.machine ]);
  Alcotest.(check bool) "case insensitive" true
    (Machine.by_name "ALPHA" <> None);
  Alcotest.(check bool) "unknown" true (Machine.by_name "vax" = None)

let test_word_sizes () =
  Alcotest.(check bool) "alpha is 64-bit" true
    (Width.equal Machine.alpha.word Width.W64);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Machine.name ^ " is 32-bit")
        true
        (Width.equal m.Machine.word Width.W32))
    [ Machine.mc88100; Machine.mc68030 ]

let prop_latency_at_least_one =
  let kinds =
    QCheck.oneofl
      [
        Rtl.Move (reg 0, Rtl.Imm 0L);
        Rtl.Binop (Rtl.Mul, reg 0, Rtl.Imm 2L, Rtl.Imm 3L);
        Rtl.Jump "L";
        Rtl.Label "L";
        Rtl.Nop;
        Rtl.Ret None;
      ]
  in
  QCheck.Test.make ~name:"latency is always at least 1" ~count:100
    (QCheck.pair (QCheck.oneofl (Machine.all @ [ Test32.machine ])) kinds)
    (fun (m, k) -> Machine.latency m k >= 1)

let () =
  Alcotest.run "machine"
    [
      ( "capabilities",
        [
          Alcotest.test_case "alpha" `Quick test_alpha_capabilities;
          Alcotest.test_case "motorola" `Quick test_motorola_capabilities;
          Alcotest.test_case "word sizes" `Quick test_word_sizes;
        ] );
      ( "costs",
        [
          Alcotest.test_case "widen factors" `Quick test_widen_factors;
          Alcotest.test_case "paper cost relations" `Quick
            test_cost_relations;
          Alcotest.test_case "inst_cost" `Quick test_inst_cost;
        ] );
      ( "lookup", [ Alcotest.test_case "by_name" `Quick test_by_name ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_latency_at_least_one ] );
    ]
