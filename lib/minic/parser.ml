open Ast

exception Error of string * int * int

type state = { mutable toks : Lexer.t list }

let peek st =
  match st.toks with
  | t :: _ -> t
  | [] -> { Lexer.token = Lexer.EOF; line = 0; col = 0 }

let next st =
  let t = peek st in
  (match st.toks with [] -> () | _ :: rest -> st.toks <- rest);
  t

let error_at (t : Lexer.t) fmt =
  Format.kasprintf (fun msg -> raise (Error (msg, t.line, t.col))) fmt

let expect_punct st p =
  let t = next st in
  match t.token with
  | Lexer.PUNCT q when String.equal p q -> ()
  | tok -> error_at t "expected '%s', found %a" p Lexer.pp_token tok

let accept_punct st p =
  match (peek st).token with
  | Lexer.PUNCT q when String.equal p q ->
    ignore (next st);
    true
  | _ -> false

let accept_kw st k =
  match (peek st).token with
  | Lexer.KW q when String.equal k q ->
    ignore (next st);
    true
  | _ -> false

let expect_ident st =
  let t = next st in
  match t.token with
  | Lexer.IDENT s -> s
  | tok -> error_at t "expected identifier, found %a" Lexer.pp_token tok

(* --- types --- *)

let is_type_start (t : Lexer.t) =
  match t.token with
  | Lexer.KW ("unsigned" | "char" | "short" | "int" | "long" | "void") ->
    true
  | _ -> false

let parse_base_type st =
  let unsigned = accept_kw st "unsigned" in
  let t = peek st in
  let base =
    if accept_kw st "char" then Some I8
    else if accept_kw st "short" then Some I16
    else if accept_kw st "int" then Some I32
    else if accept_kw st "long" then Some I64
    else if accept_kw st "void" then None
    else if unsigned then Some I32 (* plain 'unsigned' *)
    else error_at t "expected a type"
  in
  match base with
  | None ->
    if unsigned then error_at t "'unsigned void' is not a type";
    Void
  | Some w -> Int (w, if unsigned then Unsigned else Signed)

let parse_type st =
  let base = parse_base_type st in
  let rec stars ty = if accept_punct st "*" then stars (Ptr ty) else ty in
  stars base

(* --- expressions (precedence climbing) --- *)

let binop_of_punct = function
  | "+" -> Some Add
  | "-" -> Some Sub
  | "*" -> Some Mul
  | "/" -> Some Div
  | "%" -> Some Rem
  | "<<" -> Some Shl
  | ">>" -> Some Shr
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | "==" -> Some Eq
  | "!=" -> Some Ne
  | "&" -> Some BAnd
  | "|" -> Some BOr
  | "^" -> Some BXor
  | "&&" -> Some LAnd
  | "||" -> Some LOr
  | _ -> None

let precedence = function
  | Mul | Div | Rem -> 10
  | Add | Sub -> 9
  | Shl | Shr -> 8
  | Lt | Le | Gt | Ge -> 7
  | Eq | Ne -> 6
  | BAnd -> 5
  | BXor -> 4
  | BOr -> 3
  | LAnd -> 2
  | LOr -> 1

let rec parse_expr_prec st min_prec =
  let lhs = parse_unary st in
  parse_binop_rhs st lhs min_prec

and parse_binop_rhs st lhs min_prec =
  match (peek st).token with
  | Lexer.PUNCT "?" when min_prec <= 0 ->
    ignore (next st);
    let then_e = parse_expr_prec st 0 in
    expect_punct st ":";
    let else_e = parse_expr_prec st 0 in
    Cond (lhs, then_e, else_e)
  | Lexer.PUNCT p -> (
    match binop_of_punct p with
    | Some op when precedence op >= min_prec ->
      ignore (next st);
      let rhs = parse_expr_prec st (precedence op + 1) in
      parse_binop_rhs st (Binop (op, lhs, rhs)) min_prec
    | _ -> lhs)
  | _ -> lhs

and parse_unary st =
  let t = peek st in
  match t.token with
  | Lexer.PUNCT "-" ->
    ignore (next st);
    Unop (Neg, parse_unary st)
  | Lexer.PUNCT "!" ->
    ignore (next st);
    Unop (LNot, parse_unary st)
  | Lexer.PUNCT "~" ->
    ignore (next st);
    Unop (BNot, parse_unary st)
  | Lexer.PUNCT "*" ->
    ignore (next st);
    Deref (parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec loop e =
    if accept_punct st "[" then begin
      let idx = parse_expr_prec st 0 in
      expect_punct st "]";
      loop (Index (e, idx))
    end
    else e
  in
  loop (parse_primary st)

and parse_primary st =
  let t = next st in
  match t.token with
  | Lexer.INT_LIT v -> Const v
  | Lexer.IDENT name ->
    if accept_punct st "(" then begin
      let args =
        if accept_punct st ")" then []
        else
          let rec go acc =
            let e = parse_expr_prec st 0 in
            if accept_punct st "," then go (e :: acc)
            else begin
              expect_punct st ")";
              List.rev (e :: acc)
            end
          in
          go []
      in
      Call (name, args)
    end
    else Var name
  | Lexer.PUNCT "(" ->
    if is_type_start (peek st) then begin
      let ty = parse_type st in
      expect_punct st ")";
      Cast (ty, parse_unary st)
    end
    else begin
      let e = parse_expr_prec st 0 in
      expect_punct st ")";
      e
    end
  | tok -> error_at t "expected expression, found %a" Lexer.pp_token tok

let parse_expression st = parse_expr_prec st 0

(* --- statements --- *)

let lvalue_of_expr t = function
  | Var s -> Lvar s
  | Index (a, i) -> Lindex (a, i)
  | Deref e -> Lderef e
  | _ -> error_at t "expression is not assignable"

let compound_ops =
  [ ("+=", Add); ("-=", Sub); ("*=", Mul); ("/=", Div); ("%=", Rem);
    ("&=", BAnd); ("|=", BOr); ("^=", BXor); ("<<=", Shl); (">>=", Shr) ]

(* An expression statement body (no trailing ';'): assignment, compound
   assignment, ++/--, or a bare expression. *)
let parse_simple_stmt st =
  let t0 = peek st in
  let e = parse_expression st in
  match (peek st).token with
  | Lexer.PUNCT "=" ->
    ignore (next st);
    let rhs = parse_expression st in
    Assign (lvalue_of_expr t0 e, rhs)
  | Lexer.PUNCT "++" ->
    ignore (next st);
    OpAssign (Add, lvalue_of_expr t0 e, Const 1L)
  | Lexer.PUNCT "--" ->
    ignore (next st);
    OpAssign (Sub, lvalue_of_expr t0 e, Const 1L)
  | Lexer.PUNCT p when List.mem_assoc p compound_ops ->
    ignore (next st);
    let rhs = parse_expression st in
    OpAssign (List.assoc p compound_ops, lvalue_of_expr t0 e, rhs)
  | _ -> Expr e

let rec parse_stmt st =
  let t = peek st in
  match t.token with
  | Lexer.KW "if" ->
    ignore (next st);
    expect_punct st "(";
    let cond = parse_expression st in
    expect_punct st ")";
    let then_b = parse_stmt_or_block st in
    let else_b = if accept_kw st "else" then parse_stmt_or_block st else [] in
    If (cond, then_b, else_b)
  | Lexer.KW "while" ->
    ignore (next st);
    expect_punct st "(";
    let cond = parse_expression st in
    expect_punct st ")";
    While (cond, parse_stmt_or_block st)
  | Lexer.KW "do" ->
    ignore (next st);
    let body = parse_stmt_or_block st in
    let t' = peek st in
    if not (accept_kw st "while") then
      error_at t' "expected 'while' after do-body";
    expect_punct st "(";
    let cond = parse_expression st in
    expect_punct st ")";
    expect_punct st ";";
    DoWhile (body, cond)
  | Lexer.KW "for" ->
    ignore (next st);
    expect_punct st "(";
    let init =
      if accept_punct st ";" then None
      else begin
        let s =
          if is_type_start (peek st) then parse_decl st
          else parse_simple_stmt st
        in
        expect_punct st ";";
        Some s
      end
    in
    let cond =
      if accept_punct st ";" then None
      else begin
        let e = parse_expression st in
        expect_punct st ";";
        Some e
      end
    in
    let step =
      if accept_punct st ")" then None
      else begin
        let s = parse_simple_stmt st in
        expect_punct st ")";
        Some s
      end
    in
    For (init, cond, step, parse_stmt_or_block st)
  | Lexer.KW "return" ->
    ignore (next st);
    if accept_punct st ";" then Return None
    else begin
      let e = parse_expression st in
      expect_punct st ";";
      Return (Some e)
    end
  | Lexer.KW "break" ->
    ignore (next st);
    expect_punct st ";";
    Break
  | Lexer.KW "continue" ->
    ignore (next st);
    expect_punct st ";";
    Continue
  | tok when is_type_start t ->
    ignore tok;
    let d = parse_decl st in
    expect_punct st ";";
    d
  | _ ->
    let s = parse_simple_stmt st in
    expect_punct st ";";
    s

and parse_decl st =
  let ty = parse_type st in
  let name = expect_ident st in
  let init = if accept_punct st "=" then Some (parse_expression st) else None in
  Decl (ty, name, init)

and parse_stmt_or_block st =
  if accept_punct st "{" then begin
    let rec go acc =
      if accept_punct st "}" then List.rev acc else go (parse_stmt st :: acc)
    in
    go []
  end
  else [ parse_stmt st ]

(* --- top level --- *)

(* Parameter attributes are contextual identifiers (not keywords), so
   [aligned]/[noalias]/[extent]/[nonneg] remain usable as ordinary
   variable names everywhere else. *)
let parse_param_attrs st =
  let rec go acc =
    match (peek st).token with
    | Lexer.IDENT "aligned" ->
      ignore (next st);
      expect_punct st "(";
      let t = peek st in
      let n =
        match (next st).token with
        | Lexer.INT_LIT n -> n
        | tok -> error_at t "expected an alignment, found %a" Lexer.pp_token tok
      in
      expect_punct st ")";
      go (Aligned n :: acc)
    | Lexer.IDENT "noalias" ->
      ignore (next st);
      go (Noalias :: acc)
    | Lexer.IDENT "extent" ->
      ignore (next st);
      expect_punct st "(";
      let e = parse_expression st in
      expect_punct st ")";
      go (Extent e :: acc)
    | Lexer.IDENT "nonneg" ->
      ignore (next st);
      go (Nonneg :: acc)
    | _ -> List.rev acc
  in
  go []

let parse_param st =
  let ty = parse_type st in
  let name = expect_ident st in
  let ty =
    if accept_punct st "[" then begin
      expect_punct st "]";
      Ptr ty (* array parameters decay to pointers *)
    end
    else ty
  in
  { pname = name; pty = ty; pattrs = parse_param_attrs st }

let parse_func st =
  let ret = parse_type st in
  let fname = expect_ident st in
  expect_punct st "(";
  let params =
    if accept_punct st ")" then []
    else
      let rec go acc =
        let p = parse_param st in
        if accept_punct st "," then go (p :: acc)
        else begin
          expect_punct st ")";
          List.rev (p :: acc)
        end
      in
      go []
  in
  expect_punct st "{";
  let rec go acc =
    if accept_punct st "}" then List.rev acc else go (parse_stmt st :: acc)
  in
  { fname; ret; params; body = go [] }

let parse src =
  let st = { toks = Lexer.tokenize src } in
  let rec go acc =
    match (peek st).token with
    | Lexer.EOF -> List.rev acc
    | _ -> go (parse_func st :: acc)
  in
  go []
