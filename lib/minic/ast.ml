(* Abstract syntax of MiniC, the C subset the paper's benchmarks need:
   sized integer types, pointers/arrays, functions, loops, conditionals.

   Semantics deliberately simplified relative to ISO C (documented in
   README): all integer arithmetic is performed on 64-bit registers; the
   sized types only determine memory access width and the extension applied
   on loads. There is no address-of operator and local arrays are not
   supported, so locals live in registers and the simulator needs no
   stack. *)

type signedness = Signed | Unsigned

type ity = I8 | I16 | I32 | I64

type ty = Void | Int of ity * signedness | Ptr of ty

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | BAnd | BOr | BXor
  | LAnd | LOr

type unop = Neg | LNot | BNot

type expr =
  | Const of int64
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Index of expr * expr  (* a[i] *)
  | Deref of expr  (* *p *)
  | Cast of ty * expr
  | Call of string * expr list
  | Cond of expr * expr * expr  (* c ? a : b *)

type lvalue =
  | Lvar of string
  | Lindex of expr * expr
  | Lderef of expr

type stmt =
  | Decl of ty * string * expr option
  | Assign of lvalue * expr
  | OpAssign of binop * lvalue * expr  (* x += e, a[i] |= e, ... *)
  | Expr of expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | DoWhile of stmt list * expr
  | For of stmt option * expr option * stmt option * stmt list
  | Return of expr option
  | Break
  | Continue

(* Parameter attributes, the source-level seeds of the static
   disambiguation facts: written postfix after the parameter name, e.g.
   [char a[] aligned(8) noalias extent(n)]. [Extent] sizes are in bytes
   and may be any expression; the lowering only exports the linear ones. *)
type attr =
  | Aligned of int64  (* the pointer is a multiple of this many bytes *)
  | Noalias  (* points into its own allocation, distinct per parameter *)
  | Extent of expr  (* the allocation is this many bytes *)
  | Nonneg  (* the (integer) value is >= 0 *)

type param = { pname : string; pty : ty; pattrs : attr list }

type func = {
  fname : string;
  ret : ty;
  params : param list;
  body : stmt list;
}

type program = func list

let rec sizeof = function
  | Void -> invalid_arg "sizeof void"
  | Int (I8, _) -> 1
  | Int (I16, _) -> 2
  | Int (I32, _) -> 4
  | Int (I64, _) -> 8
  | Ptr _ -> 8

and ty_equal a b =
  match (a, b) with
  | Void, Void -> true
  | Int (w1, s1), Int (w2, s2) -> w1 = w2 && s1 = s2
  | Ptr t1, Ptr t2 -> ty_equal t1 t2
  | (Void | Int _ | Ptr _), _ -> false
