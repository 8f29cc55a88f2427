(* Tests for the MiniC front end: lexer, parser, type checker, lowering.
   Lowered code is validated by executing it on the simulator. *)

open Mac_rtl
module Lexer = Mac_minic.Lexer
module Parser = Mac_minic.Parser
module Ast = Mac_minic.Ast
module Typecheck = Mac_minic.Typecheck
module Lower = Mac_minic.Lower
module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp
module Machine = Mac_machine.Machine

(* --- lexer --- *)

let tokens src = List.map (fun (t : Lexer.t) -> t.token) (Lexer.tokenize src)

let test_lexer_basic () =
  Alcotest.(check bool) "idents and ints" true
    (tokens "foo 42 0x2A"
    = [ Lexer.IDENT "foo"; Lexer.INT_LIT 42L; Lexer.INT_LIT 42L; Lexer.EOF ]);
  Alcotest.(check bool) "keywords" true
    (tokens "int unsigned while"
    = [ Lexer.KW "int"; Lexer.KW "unsigned"; Lexer.KW "while"; Lexer.EOF ])

let test_lexer_longest_match () =
  Alcotest.(check bool) "<<= is one token" true
    (tokens "a <<= 1"
    = [ Lexer.IDENT "a"; Lexer.PUNCT "<<="; Lexer.INT_LIT 1L; Lexer.EOF ]);
  Alcotest.(check bool) ">= vs >" true
    (tokens "a >= > b"
    = [ Lexer.IDENT "a"; Lexer.PUNCT ">="; Lexer.PUNCT ">";
        Lexer.IDENT "b"; Lexer.EOF ])

let test_lexer_comments_and_chars () =
  Alcotest.(check bool) "comments skipped" true
    (tokens "a // line\n /* block\n */ b"
    = [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ]);
  Alcotest.(check bool) "char literal" true
    (tokens "'A' '\\n'"
    = [ Lexer.INT_LIT 65L; Lexer.INT_LIT 10L; Lexer.EOF ])

let test_lexer_errors () =
  let fails s =
    match Lexer.tokenize s with
    | exception Lexer.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "illegal char" true (fails "int @;");
  Alcotest.(check bool) "unterminated comment" true (fails "/* foo");
  Alcotest.(check bool) "bad char literal" true (fails "'ab")

let test_lexer_positions () =
  match Lexer.tokenize "a\n  b" with
  | [ _; b; _ ] ->
    Alcotest.(check int) "line" 2 b.Lexer.line;
    Alcotest.(check int) "col" 3 b.Lexer.col
  | _ -> Alcotest.fail "expected two tokens"

(* --- parser --- *)

(* An expression as the parser reads it inside a return statement. *)
let parse_expr src =
  match Parser.parse ("int f() { return " ^ src ^ "; }") with
  | [ { Ast.body = [ Ast.Return (Some e) ]; _ } ] -> e
  | _ -> Alcotest.failf "%s: expected one return" src

let test_parser_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  (match parse_expr "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Const 1L, Ast.Binop (Ast.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "mul binds tighter than add");
  (match parse_expr "a < b == c" with
  | Ast.Binop (Ast.Eq, Ast.Binop (Ast.Lt, _, _), _) -> ()
  | _ -> Alcotest.fail "relational binds tighter than equality");
  (match parse_expr "a || b && c" with
  | Ast.Binop (Ast.LOr, _, Ast.Binop (Ast.LAnd, _, _)) -> ()
  | _ -> Alcotest.fail "&& binds tighter than ||");
  match parse_expr "a + b << 2" with
  | Ast.Binop (Ast.Shl, Ast.Binop (Ast.Add, _, _), _) -> ()
  | _ -> Alcotest.fail "shift binds looser than add"

let test_parser_unary_postfix () =
  (match parse_expr "-a[i]" with
  | Ast.Unop (Ast.Neg, Ast.Index (Ast.Var "a", Ast.Var "i")) -> ()
  | _ -> Alcotest.fail "unary over postfix");
  (match parse_expr "*p + 1" with
  | Ast.Binop (Ast.Add, Ast.Deref (Ast.Var "p"), Ast.Const 1L) -> ()
  | _ -> Alcotest.fail "deref binds tight");
  match parse_expr "f(x, y + 1)[2]" with
  | Ast.Index (Ast.Call ("f", [ _; _ ]), Ast.Const 2L) -> ()
  | _ -> Alcotest.fail "call then index"

let test_parser_cast_vs_parens () =
  (match parse_expr "(short)x" with
  | Ast.Cast (Ast.Int (Ast.I16, Ast.Signed), Ast.Var "x") -> ()
  | _ -> Alcotest.fail "cast");
  (match parse_expr "(x)" with
  | Ast.Var "x" -> ()
  | _ -> Alcotest.fail "parenthesised expr");
  match parse_expr "(unsigned char)(x + 1)" with
  | Ast.Cast (Ast.Int (Ast.I8, Ast.Unsigned), _) -> ()
  | _ -> Alcotest.fail "unsigned cast"

let test_parser_ternary () =
  match parse_expr "a ? b : c ? d : e" with
  | Ast.Cond (Ast.Var "a", Ast.Var "b", Ast.Cond (_, _, _)) -> ()
  | _ -> Alcotest.fail "ternary right-associates"

let test_parser_program () =
  let prog =
    Parser.parse
      {|
int f(short a[], int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i++) {
    if (a[i] > 0) s += a[i]; else s -= 1;
  }
  while (s > 100) { s = s / 2; }
  return s;
}
void g(char* p) { *p = 1; }
|}
  in
  Alcotest.(check int) "two functions" 2 (List.length prog);
  let f = List.hd prog in
  Alcotest.(check string) "name" "f" f.Ast.fname;
  Alcotest.(check int) "params" 2 (List.length f.Ast.params);
  (match (List.hd f.Ast.params).Ast.pty with
  | Ast.Ptr (Ast.Int (Ast.I16, Ast.Signed)) -> ()
  | _ -> Alcotest.fail "array parameter decays to pointer");
  match (List.nth prog 1).Ast.ret with
  | Ast.Void -> ()
  | _ -> Alcotest.fail "void return"

let test_parser_errors () =
  let fails s =
    match Parser.parse s with
    | exception Parser.Error _ -> true
    | exception Lexer.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing paren" true (fails "int f( { }");
  Alcotest.(check bool) "missing semicolon" true
    (fails "int f() { return 1 }");
  Alcotest.(check bool) "assign to rvalue" true
    (fails "int f() { 1 + 2 = 3; }")

(* --- typecheck --- *)

let check_fails src =
  match Typecheck.check_program (Parser.parse src) with
  | exception Typecheck.Error _ -> true
  | _ -> false

let test_typecheck_rejects () =
  Alcotest.(check bool) "undefined variable" true
    (check_fails "int f() { return x; }");
  Alcotest.(check bool) "undefined function" true
    (check_fails "int f() { return g(); }");
  Alcotest.(check bool) "arity" true
    (check_fails "int g(int x) { return x; } int f() { return g(); }");
  Alcotest.(check bool) "indexing a scalar" true
    (check_fails "int f(int x) { return x[0]; }");
  Alcotest.(check bool) "deref of int" true
    (check_fails "int f(int x) { return *x; }");
  Alcotest.(check bool) "void variable" true
    (check_fails "int f() { void v; return 0; }");
  Alcotest.(check bool) "pointer multiply" true
    (check_fails "int f(int* p) { return p * 2; }");
  Alcotest.(check bool) "break outside loop" true
    (check_fails "int f() { break; return 0; }")

let test_typecheck_accepts () =
  Typecheck.check_program
    (Parser.parse
       {|
long h(char* p, int n) {
  long s = 0;
  int i = 0;
  while (i < n) { s += p[i]; i++; }
  return s;
}
|});
  ()

(* --- lowering, validated by execution --- *)

let exec ?(machine = Test32.machine) ?(mem_size = 8192) ?(args = []) ~entry src
    =
  let funcs = Lower.compile src in
  List.iter
    (fun f ->
      match Mac_verify.Rtlcheck.structural_checks ~pass:"lower" f with
      | [] -> ()
      | d :: _ ->
        Alcotest.failf "invalid lowering: %a" Mac_verify.Diagnostic.pp d)
    funcs;
  let memory = Memory.create ~size:mem_size in
  (Interp.run ~machine ~memory funcs ~entry ~args ()).value

let test_lower_arith () =
  Alcotest.(check int64) "arith" 17L
    (exec ~entry:"f" "int f() { return 2 + 3 * 5; }");
  Alcotest.(check int64) "division truncates" (-2L)
    (exec ~entry:"f" "int f() { return (0 - 7) / 3; }");
  Alcotest.(check int64) "shift" 40L
    (exec ~entry:"f" "int f() { return 5 << 3; }");
  Alcotest.(check int64) "bitwise" 6L
    (exec ~entry:"f" "int f() { return (12 ^ 10) | 4; }")

let test_lower_logic () =
  Alcotest.(check int64) "short circuit and" 0L
    (exec ~entry:"f" "int f(int x) { return x && 1; }" ~args:[ 0L ]);
  Alcotest.(check int64) "or" 1L
    (exec ~entry:"f" "int f(int x) { return x || 0; }" ~args:[ 5L ]);
  Alcotest.(check int64) "not" 1L
    (exec ~entry:"f" "int f(int x) { return !x; }" ~args:[ 0L ]);
  Alcotest.(check int64) "ternary" 7L
    (exec ~entry:"f" "int f(int x) { return x > 2 ? 7 : 9; }" ~args:[ 3L ]);
  Alcotest.(check int64) "comparison value" 1L
    (exec ~entry:"f" "int f() { return 3 < 4; }")

let test_lower_control () =
  Alcotest.(check int64) "if/else" 1L
    (exec ~entry:"f" "int f(int x) { if (x > 0) return 1; else return 2; }"
       ~args:[ 4L ]);
  Alcotest.(check int64) "while sum" 55L
    (exec ~entry:"f"
       "int f(int n) { int s = 0; int i = 1; while (i <= n) { s += i; i++; } \
        return s; }"
       ~args:[ 10L ]);
  Alcotest.(check int64) "for with break" 5L
    (exec ~entry:"f"
       "int f() { int i; for (i = 0; i < 10; i++) { if (i == 5) break; } \
        return i; }");
  Alcotest.(check int64) "continue skips" 25L
    (exec ~entry:"f"
       "int f() { int s = 0; int i; for (i = 0; i < 10; i++) { if (i % 2 == \
        0) continue; s += i; } return s; }")

let test_lower_do_while () =
  Alcotest.(check int64) "do-while runs at least once" 1L
    (exec ~entry:"f"
       "int f() { int n = 0; do { n++; } while (n < 0); return n; }");
  Alcotest.(check int64) "do-while counts" 10L
    (exec ~entry:"f"
       "int f() { int n = 0; do { n++; } while (n < 10); return n; }");
  Alcotest.(check int64) "do-while with break" 3L
    (exec ~entry:"f"
       "int f() { int n = 0; do { n++; if (n == 3) break; } while (1);         return n; }")

let test_lower_memory () =
  let src =
    {|
int f(short a[], int n) {
  int i;
  for (i = 0; i < n; i++) a[i] = i * i;
  int s = 0;
  for (i = 0; i < n; i++) s += a[i];
  return s;
}
|}
  in
  (* buffer address 64, n = 10: sum of squares 0..9 = 285 *)
  Alcotest.(check int64) "array write/read" 285L
    (exec ~entry:"f" ~args:[ 64L; 10L ] src)

let test_lower_width_semantics () =
  Alcotest.(check int64) "char store truncates, signed load extends" (-1L)
    (exec ~entry:"f" ~args:[ 64L ]
       "int f(char* p) { p[0] = 255; return p[0]; }");
  Alcotest.(check int64) "unsigned char load" 255L
    (exec ~entry:"f" ~args:[ 64L ]
       "int f(unsigned char* p) { p[0] = 255; return p[0]; }");
  Alcotest.(check int64) "short cast" (-32768L)
    (exec ~entry:"f" "int f() { return (short)32768; }");
  Alcotest.(check int64) "unsigned short cast" 32768L
    (exec ~entry:"f" "int f() { return (unsigned short)32768; }")

let test_lower_pointer_arith () =
  Alcotest.(check int64) "pointer index scaling" 3L
    (exec ~entry:"f" ~args:[ 64L ]
       "int f(int* p) { p[3] = 3; return *(p + 3); }");
  Alcotest.(check int64) "pointer difference in elements" 5L
    (exec ~entry:"f" ~args:[ 64L ]
       "long f(long* p) { long* q = p + 5; return q - p; }");
  Alcotest.(check int64) "negative index" 9L
    (exec ~entry:"f" ~args:[ 128L ]
       "int f(int* p) { int* q = p + 4; q[0 - 4] = 9; return p[0]; }")

let test_lower_calls () =
  let src =
    {|
int square(int x) { return x * x; }
int f(int n) { return square(n) + square(n + 1); }
|}
  in
  Alcotest.(check int64) "nested calls" 25L (exec ~entry:"f" ~args:[ 3L ] src)

let test_lower_nested_loops () =
  let src =
    {|
int matsum(int a[], int rows, int cols) {
  int s = 0;
  int y;
  for (y = 0; y < rows; y++) {
    int x;
    for (x = 0; x < cols; x++)
      s += a[y * cols + x];
  }
  return s;
}
|}
  in
  (* fill a 3x4 matrix with 1..12: sum = 78 *)
  let funcs = Lower.compile src in
  let memory = Memory.create ~size:8192 in
  for i = 0 to 11 do
    Memory.store memory ~addr:(Int64.of_int (64 + (4 * i))) ~width:Width.W32
      (Int64.of_int (i + 1))
  done;
  let r =
    Interp.run ~machine:Test32.machine ~memory funcs ~entry:"matsum"
      ~args:[ 64L; 3L; 4L ] ()
  in
  Alcotest.(check int64) "matrix sum" 78L r.value

let test_lower_scoping () =
  (* an inner declaration shadows without clobbering the outer variable *)
  Alcotest.(check int64) "shadowing" 7L
    (exec ~entry:"f"
       "int f() { int x = 7; if (1) { int x = 9; x++; } return x; }");
  (* a loop-local declaration is re-initialised every iteration *)
  Alcotest.(check int64) "loop-local init" 30L
    (exec ~entry:"f"
       "int f() { int s = 0; int i; for (i = 0; i < 3; i++) { int t = 10;         s += t; } return s; }")

let test_lower_unsigned_compare () =
  (* pointer comparisons are unsigned *)
  Alcotest.(check int64) "pointer compare" 1L
    (exec ~entry:"f" ~args:[ 64L ]
       "int f(char* p) { char* q = p + 4; return p < q; }");
  (* integer comparisons are signed *)
  Alcotest.(check int64) "signed compare" 1L
    (exec ~entry:"f" "int f() { return 0 - 1 < 1; }")

let test_lower_loop_shape () =
  (* counted loops must lower to the simple single-block shape *)
  let funcs =
    Lower.compile
      "int f(short a[], int n) { int s = 0; int i; for (i = 0; i < n; i++) \
       s += a[i]; return s; }"
  in
  let f = List.hd funcs in
  let cfg = Mac_cfg.Cfg.build f in
  let dom = Mac_cfg.Dom.compute cfg in
  match Mac_cfg.Loop.natural_loops cfg dom with
  | [ l ] ->
    Alcotest.(check bool) "simple" true
      (Mac_cfg.Loop.simple_of cfg l <> None);
    (match Mac_cfg.Loop.simple_of cfg l with
    | Some s ->
      Alcotest.(check bool) "trip recognised" true
        (Mac_opt.Induction.trip_of s <> None)
    | None -> Alcotest.fail "no simple view")
  | _ -> Alcotest.fail "expected one loop"

(* Property: constant expressions evaluate like a big-int interpreter. *)
let rec eval_ast (e : Ast.expr) : int64 option =
  let open Int64 in
  match e with
  | Ast.Const v -> Some v
  | Ast.Binop (op, a, b) -> (
    match (eval_ast a, eval_ast b) with
    | Some x, Some y -> (
      match op with
      | Ast.Add -> Some (add x y)
      | Ast.Sub -> Some (sub x y)
      | Ast.Mul -> Some (mul x y)
      | Ast.BAnd -> Some (logand x y)
      | Ast.BOr -> Some (logor x y)
      | Ast.BXor -> Some (logxor x y)
      | _ -> None)
    | _ -> None)
  | _ -> None

let gen_const_expr =
  let open QCheck.Gen in
  let rec gen n =
    if n = 0 then map (fun v -> Ast.Const (Int64.of_int v)) (int_bound 1000)
    else
      let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.BAnd; Ast.BOr ] in
      let* a = gen (n / 2) in
      let* b = gen (n / 2) in
      return (Ast.Binop (op, a, b))
  in
  sized_size (int_range 0 6) gen

let expr_to_src (e : Ast.expr) =
  let rec go = function
    | Ast.Const v -> Int64.to_string v
    | Ast.Binop (op, a, b) ->
      let s =
        match op with
        | Ast.Add -> "+"
        | Ast.Sub -> "-"
        | Ast.Mul -> "*"
        | Ast.BAnd -> "&"
        | Ast.BOr -> "|"
        | Ast.BXor -> "^"
        | _ -> assert false
      in
      Printf.sprintf "(%s %s %s)" (go a) s (go b)
    | _ -> assert false
  in
  go e

let prop_const_exprs_evaluate =
  QCheck.Test.make ~name:"constant expressions match reference" ~count:200
    (QCheck.make gen_const_expr) (fun e ->
      match eval_ast e with
      | None -> QCheck.assume_fail ()
      | Some expected ->
        let src =
          Format.asprintf "long f() { return %s; }" (expr_to_src e)
        in
        Int64.equal (exec ~entry:"f" src) expected)

(* --- parameter attributes ------------------------------------------- *)

let attrs_of_param src i =
  match Parser.parse src with
  | [ f ] -> (List.nth f.Ast.params i).Ast.pattrs
  | _ -> Alcotest.fail "expected one function"

let test_param_attrs_parse () =
  let src =
    "void f(char a[] aligned(8) noalias extent(n), int n nonneg) { }"
  in
  (match attrs_of_param src 0 with
  | [ Ast.Aligned 8L; Ast.Noalias; Ast.Extent (Ast.Var "n") ] -> ()
  | _ -> Alcotest.fail "wrong attrs on a");
  (match attrs_of_param src 1 with
  | [ Ast.Nonneg ] -> ()
  | _ -> Alcotest.fail "wrong attrs on n");
  (* attribute words are contextual, not keywords *)
  match Parser.parse "int f(int aligned, int noalias) { return aligned; }" with
  | [ f ] ->
    Alcotest.(check (list string)) "contextual idents stay parameter names"
      [ "aligned"; "noalias" ]
      (List.map (fun p -> p.Ast.pname) f.Ast.params)
  | _ -> Alcotest.fail "expected one function"

let test_param_facts_lowering () =
  let open Mac_minic.Lower in
  let prog =
    Parser.parse
      "void f(char a[] aligned(8) noalias extent(2 * n + 4), \
       short b[] noalias, char c[] extent(n), int n nonneg) { }"
  in
  match param_facts (List.hd prog) with
  | [ Falloc (ra', 0, sz); Falign (ra, 3); Fnonneg rn ] ->
    Alcotest.(check int) "align on param 0" 0 (Reg.id ra);
    Alcotest.(check int) "alloc on param 0" 0 (Reg.id ra');
    Alcotest.(check int) "nonneg on param 3" 3 (Reg.id rn);
    Alcotest.(check int64) "extent constant" 4L sz.s_const;
    (match sz.s_terms with
    | [ (r, 2L) ] -> Alcotest.(check int) "extent term is n" 3 (Reg.id r)
    | _ -> Alcotest.fail "wrong extent terms")
    (* b has noalias but no extent, c an extent but no noalias: neither
       yields an allocation fact *)
  | fs -> Alcotest.failf "unexpected facts (%d)" (List.length fs)

let test_param_attrs_ignored_semantically () =
  (* attributes never change generated code: same cycles, same value *)
  let plain = "long f(int a[], int n) { int i; long s; s = 0; \
               for (i = 0; i < n; i++) { s += a[i]; } return s; }" in
  let attred = "long f(int a[] aligned(8) noalias extent(4 * n), \
                int n nonneg) { int i; long s; s = 0; \
                for (i = 0; i < n; i++) { s += a[i]; } return s; }" in
  let run src =
    let fs = Lower.compile src in
    let mem = Memory.create ~size:4096 in
    List.iter
      (fun a ->
        Memory.store mem ~addr:(Int64.of_int (1024 + (4 * a))) ~width:Width.W32
          (Int64.of_int (a * 3)))
      [ 0; 1; 2; 3 ];
    (Interp.run ~machine:Test32.machine ~memory:mem fs ~entry:"f"
       ~args:[ 1024L; 4L ] ())
      .value
  in
  Alcotest.(check int64) "same result" (run plain) (run attred)

let () =
  Alcotest.run "minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "longest match" `Quick test_lexer_longest_match;
          Alcotest.test_case "comments/chars" `Quick
            test_lexer_comments_and_chars;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "unary/postfix" `Quick test_parser_unary_postfix;
          Alcotest.test_case "cast vs parens" `Quick
            test_parser_cast_vs_parens;
          Alcotest.test_case "ternary" `Quick test_parser_ternary;
          Alcotest.test_case "program" `Quick test_parser_program;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "rejects" `Quick test_typecheck_rejects;
          Alcotest.test_case "accepts" `Quick test_typecheck_accepts;
        ] );
      ( "lower",
        [
          Alcotest.test_case "arithmetic" `Quick test_lower_arith;
          Alcotest.test_case "logic" `Quick test_lower_logic;
          Alcotest.test_case "control" `Quick test_lower_control;
          Alcotest.test_case "do-while" `Quick test_lower_do_while;
          Alcotest.test_case "memory" `Quick test_lower_memory;
          Alcotest.test_case "width semantics" `Quick
            test_lower_width_semantics;
          Alcotest.test_case "pointer arithmetic" `Quick
            test_lower_pointer_arith;
          Alcotest.test_case "calls" `Quick test_lower_calls;
          Alcotest.test_case "nested loops" `Quick test_lower_nested_loops;
          Alcotest.test_case "scoping" `Quick test_lower_scoping;
          Alcotest.test_case "unsigned compares" `Quick
            test_lower_unsigned_compare;
          Alcotest.test_case "loop shape" `Quick test_lower_loop_shape;
        ] );
      ( "attributes",
        [
          Alcotest.test_case "parse" `Quick test_param_attrs_parse;
          Alcotest.test_case "lowered facts" `Quick test_param_facts_lowering;
          Alcotest.test_case "no codegen effect" `Quick
            test_param_attrs_ignored_semantically;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_const_exprs_evaluate ] );
    ]
