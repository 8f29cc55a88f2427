(** Recursive-descent parser for MiniC.

    Grammar (C subset): function definitions over sized integer and
    pointer types; declarations, assignments (including compound assignment
    and [++]/[--]), [if]/[while]/[for]/[return]/[break]/[continue]; full C
    expression precedence including the ternary operator, casts, calls,
    indexing and dereference. Array-typed parameters ([short a\[\]]) decay
    to pointers. *)

exception Error of string * int * int
(** message, line, column *)

val parse : string -> Ast.program
(** Raises {!Error} (or {!Lexer.Error}) on malformed input. *)
