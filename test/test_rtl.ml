(* Unit and property tests for the RTL IR: width arithmetic, instruction
   queries and rewriting, evaluation semantics, function validation. *)

open Mac_rtl

let reg = Reg.make

let check_i64 msg expected actual =
  Alcotest.(check int64) msg expected actual

(* --- Width --- *)

let test_width_sizes () =
  Alcotest.(check (list int))
    "bits" [ 8; 16; 32; 64 ]
    (List.map Width.bits Width.all);
  Alcotest.(check (list int))
    "bytes" [ 1; 2; 4; 8 ]
    (List.map Width.bytes Width.all);
  List.iter
    (fun w ->
      Alcotest.(check bool)
        "of_bytes_exn inverts bytes" true
        (Width.of_bytes_exn (Width.bytes w) = w))
    Width.all;
  Alcotest.check_raises "of_bytes_exn 3"
    (Invalid_argument "Width.of_bytes_exn: 3") (fun () ->
      ignore (Width.of_bytes_exn 3))

let test_width_masks () =
  check_i64 "mask b" 0xFFL (Width.mask Width.W8);
  check_i64 "mask h" 0xFFFFL (Width.mask Width.W16);
  check_i64 "mask w" 0xFFFF_FFFFL (Width.mask Width.W32);
  check_i64 "mask q" (-1L) (Width.mask Width.W64)

let test_width_extend () =
  check_i64 "sext negative byte" (-1L) (Width.sign_extend Width.W8 0xFFL);
  check_i64 "sext positive byte" 0x7FL (Width.sign_extend Width.W8 0x7FL);
  check_i64 "zext byte" 0xFFL (Width.zero_extend Width.W8 0xFFL);
  check_i64 "sext half" (-2L) (Width.sign_extend Width.W16 0xFFFEL);
  check_i64 "truncate keeps low bits" 0x34L
    (Width.truncate Width.W8 0x1234L);
  check_i64 "sext is identity on quad" (-5L)
    (Width.sign_extend Width.W64 (-5L))

(* --- defs/uses --- *)

let mem ?(disp = 0L) ?(width = Width.W32) ?(aligned = true) base =
  { Rtl.base; disp; width; aligned }

let test_defs_uses () =
  let k = Rtl.Binop (Rtl.Add, reg 1, Rtl.Reg (reg 2), Rtl.Reg (reg 2)) in
  Alcotest.(check (list int)) "binop defs" [ 1 ]
    (List.map Reg.id (Rtl.defs k));
  Alcotest.(check (list int)) "binop uses dedup" [ 2 ]
    (List.map Reg.id (Rtl.uses k));
  let load = Rtl.Load { dst = reg 3; src = mem (reg 4); sign = Rtl.Signed } in
  Alcotest.(check (list int)) "load defs" [ 3 ]
    (List.map Reg.id (Rtl.defs load));
  Alcotest.(check (list int)) "load uses" [ 4 ]
    (List.map Reg.id (Rtl.uses load));
  let store = Rtl.Store { src = Rtl.Reg (reg 5); dst = mem (reg 6) } in
  Alcotest.(check (list int)) "store defs" []
    (List.map Reg.id (Rtl.defs store));
  Alcotest.(check (list int)) "store uses" [ 5; 6 ]
    (List.map Reg.id (Rtl.uses store));
  let ins =
    Rtl.Insert
      { dst = reg 7; src = Rtl.Reg (reg 8); pos = Rtl.Imm 1L;
        width = Width.W8 }
  in
  Alcotest.(check (list int)) "insert reads its destination" [ 7; 8 ]
    (List.map Reg.id (Rtl.uses ins));
  Alcotest.(check (list int)) "insert defs" [ 7 ]
    (List.map Reg.id (Rtl.defs ins))

let test_queries () =
  let load = Rtl.Load { dst = reg 1; src = mem (reg 2); sign = Rtl.Signed } in
  let store = Rtl.Store { src = Rtl.Imm 0L; dst = mem (reg 2) } in
  Alcotest.(check bool) "is_load" true (Rtl.is_load load);
  Alcotest.(check bool) "store is not load" false (Rtl.is_load store);
  Alcotest.(check bool) "is_memory store" true (Rtl.is_memory store);
  Alcotest.(check bool) "branch targets" true
    (Rtl.branch_targets (Rtl.Jump "L1") = [ "L1" ]);
  Alcotest.(check bool) "terminator ret" true (Rtl.is_terminator (Rtl.Ret None));
  Alcotest.(check bool) "label not terminator" false
    (Rtl.is_terminator (Rtl.Label "L"));
  Alcotest.(check bool) "store has side effect" true
    (Rtl.has_side_effect store);
  Alcotest.(check bool) "load is pure" false (Rtl.has_side_effect load)

let test_map_regs () =
  let bump r = Reg.make (Reg.id r + 10) in
  let k = Rtl.Binop (Rtl.Add, reg 1, Rtl.Reg (reg 2), Rtl.Imm 3L) in
  (match Rtl.map_regs bump k with
  | Rtl.Binop (Rtl.Add, d, Rtl.Reg a, Rtl.Imm 3L) ->
    Alcotest.(check int) "def renamed" 11 (Reg.id d);
    Alcotest.(check int) "use renamed" 12 (Reg.id a)
  | _ -> Alcotest.fail "unexpected shape");
  match Rtl.map_labels (fun l -> l ^ "'") (Rtl.Jump "L1") with
  | Rtl.Jump "L1'" -> ()
  | _ -> Alcotest.fail "label not rewritten"

(* --- evaluation --- *)

let test_eval_binop () =
  check_i64 "add wraps" Int64.min_int
    (Rtl.eval_binop Rtl.Add Int64.max_int 1L);
  check_i64 "sub" 2L (Rtl.eval_binop Rtl.Sub 5L 3L);
  check_i64 "mul" (-15L) (Rtl.eval_binop Rtl.Mul 5L (-3L));
  check_i64 "div rounds toward zero" (-2L) (Rtl.eval_binop Rtl.Div (-7L) 3L);
  check_i64 "rem sign follows dividend" (-1L)
    (Rtl.eval_binop Rtl.Rem (-7L) 3L);
  Alcotest.check_raises "div by zero" Rtl.Division_by_zero (fun () ->
      ignore (Rtl.eval_binop Rtl.Div 1L 0L));
  check_i64 "shl" 16L (Rtl.eval_binop Rtl.Shl 1L 4L);
  check_i64 "shift amount masked to 6 bits" 2L
    (Rtl.eval_binop Rtl.Shl 1L 65L);
  check_i64 "lshr is logical" Int64.max_int
    (Rtl.eval_binop Rtl.Lshr (-1L) 1L);
  check_i64 "ashr is arithmetic" (-1L) (Rtl.eval_binop Rtl.Ashr (-1L) 1L);
  check_i64 "cmp true" 1L (Rtl.eval_binop (Rtl.Cmp Rtl.Lt) (-1L) 0L);
  check_i64 "cmp unsigned" 0L (Rtl.eval_binop (Rtl.Cmp Rtl.Ltu) (-1L) 0L)

let test_eval_cmp () =
  Alcotest.(check bool) "eq" true (Rtl.eval_cmp Rtl.Eq 4L 4L);
  Alcotest.(check bool) "ne" false (Rtl.eval_cmp Rtl.Ne 4L 4L);
  Alcotest.(check bool) "le" true (Rtl.eval_cmp Rtl.Le 4L 4L);
  Alcotest.(check bool) "geu on negative" true
    (Rtl.eval_cmp Rtl.Geu (-1L) 1L)

let test_extract_insert () =
  (* register value 0x7766554433221100: byte i has value 0x11*i *)
  let v = 0x7766554433221100L in
  check_i64 "extract byte 0" 0x00L
    (Rtl.extract_bytes v ~pos:0 ~width:Width.W8 ~sign:Rtl.Unsigned);
  check_i64 "extract byte 5" 0x55L
    (Rtl.extract_bytes v ~pos:5 ~width:Width.W8 ~sign:Rtl.Unsigned);
  check_i64 "extract half at 2" 0x3322L
    (Rtl.extract_bytes v ~pos:2 ~width:Width.W16 ~sign:Rtl.Unsigned);
  check_i64 "extract signed half" (Width.sign_extend Width.W16 0x7766L)
    (Rtl.extract_bytes v ~pos:6 ~width:Width.W16 ~sign:Rtl.Signed);
  check_i64 "pos taken modulo 8" 0x00L
    (Rtl.extract_bytes v ~pos:8 ~width:Width.W8 ~sign:Rtl.Unsigned);
  let w = Rtl.insert_bytes v ~src:0xABL ~pos:3 ~width:Width.W8 in
  check_i64 "insert byte 3" 0x77665544AB221100L w;
  let w2 = Rtl.insert_bytes 0L ~src:0xFFFF_FFFF_1234L ~pos:2 ~width:Width.W16 in
  check_i64 "insert truncates source" 0x12340000L w2

(* --- Func --- *)

let test_func_gensym () =
  let f = Func.create ~name:"f" ~params:[ reg 0; reg 5 ] in
  Alcotest.(check int) "fresh reg after params" 6 (Reg.id (Func.fresh_reg f));
  Alcotest.(check int) "fresh regs distinct" 7 (Reg.id (Func.fresh_reg f));
  let l0 = Func.fresh_label f and l1 = Func.fresh_label f in
  Alcotest.(check bool) "labels distinct" true (not (String.equal l0 l1));
  let i0 = Func.inst f Rtl.Nop and i1 = Func.inst f Rtl.Nop in
  Alcotest.(check bool) "uids distinct" true (i0.uid <> i1.uid)

let test_refresh_uids () =
  let f = Func.create ~name:"f" ~params:[] in
  Func.append f (Rtl.Move (reg 0, Rtl.Imm 1L));
  let copy = Func.refresh_uids f f.body in
  List.iter2
    (fun (a : Rtl.inst) (b : Rtl.inst) ->
      Alcotest.(check bool) "same kind" true (a.kind = b.kind);
      Alcotest.(check bool) "fresh uid" true (a.uid <> b.uid))
    f.body copy

let test_pp () =
  let s =
    Rtl.to_string
      (Rtl.Load
         { dst = reg 1;
           src = { base = reg 2; disp = 4L; width = Width.W16;
                   aligned = true };
           sign = Rtl.Signed })
  in
  Alcotest.(check string) "load pp" "r[1] = H[r[2]+4]{s}" s;
  Alcotest.(check string) "branch pp" "PC = r[1] < 5 -> L2"
    (Rtl.to_string
       (Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 1); r = Rtl.Imm 5L;
            target = "L2" }))

(* --- properties --- *)

let prop_sign_extend_idempotent =
  QCheck.Test.make ~name:"sign_extend is idempotent" ~count:500
    (QCheck.pair (QCheck.oneofl Width.all) QCheck.int64)
    (fun (w, v) ->
      let once = Width.sign_extend w v in
      Int64.equal once (Width.sign_extend w once))

let prop_extract_after_insert =
  QCheck.Test.make ~name:"extract retrieves inserted field" ~count:500
    (QCheck.quad QCheck.int64 QCheck.int64 (QCheck.int_bound 7)
       (QCheck.oneofl [ Width.W8; Width.W16; Width.W32 ]))
    (fun (v, src, pos, w) ->
      (* keep the field inside the register *)
      QCheck.assume (pos + Width.bytes w <= 8);
      let v' = Rtl.insert_bytes v ~src ~pos ~width:w in
      Int64.equal
        (Rtl.extract_bytes v' ~pos ~width:w ~sign:Rtl.Unsigned)
        (Width.zero_extend w src))

let prop_insert_preserves_other_bytes =
  QCheck.Test.make ~name:"insert leaves other bytes untouched" ~count:500
    (QCheck.quad QCheck.int64 QCheck.int64 (QCheck.int_bound 7)
       (QCheck.oneofl [ Width.W8; Width.W16; Width.W32 ]))
    (fun (v, src, pos, w) ->
      QCheck.assume (pos + Width.bytes w <= 8);
      let v' = Rtl.insert_bytes v ~src ~pos ~width:w in
      List.for_all
        (fun b ->
          b >= pos && b < pos + Width.bytes w
          || Int64.equal
               (Rtl.extract_bytes v ~pos:b ~width:Width.W8
                  ~sign:Rtl.Unsigned)
               (Rtl.extract_bytes v' ~pos:b ~width:Width.W8
                  ~sign:Rtl.Unsigned))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let prop_map_regs_identity =
  QCheck.Test.make ~name:"map_regs with identity preserves kind" ~count:200
    (QCheck.oneofl
       [
         Rtl.Move (reg 1, Rtl.Imm 7L);
         Rtl.Binop (Rtl.Xor, reg 2, Rtl.Reg (reg 3), Rtl.Reg (reg 4));
         Rtl.Load { dst = reg 1; src = mem (reg 2); sign = Rtl.Unsigned };
         Rtl.Store { src = Rtl.Reg (reg 9); dst = mem (reg 8) };
         Rtl.Branch
           { cmp = Rtl.Ge; l = Rtl.Reg (reg 1); r = Rtl.Imm 0L;
             target = "L" };
       ])
    (fun k -> Rtl.map_regs Fun.id k = k)

let () =
  Alcotest.run "rtl"
    [
      ( "width",
        [
          Alcotest.test_case "sizes" `Quick test_width_sizes;
          Alcotest.test_case "masks" `Quick test_width_masks;
          Alcotest.test_case "extend" `Quick test_width_extend;
        ] );
      ( "inst",
        [
          Alcotest.test_case "defs/uses" `Quick test_defs_uses;
          Alcotest.test_case "queries" `Quick test_queries;
          Alcotest.test_case "map_regs/map_labels" `Quick test_map_regs;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "eval",
        [
          Alcotest.test_case "binop" `Quick test_eval_binop;
          Alcotest.test_case "cmp" `Quick test_eval_cmp;
          Alcotest.test_case "extract/insert" `Quick test_extract_insert;
        ] );
      ( "func",
        [
          Alcotest.test_case "gensym" `Quick test_func_gensym;
          Alcotest.test_case "refresh_uids" `Quick test_refresh_uids;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sign_extend_idempotent;
            prop_extract_after_insert;
            prop_insert_preserves_other_bytes;
            prop_map_regs_identity;
          ] );
    ]
