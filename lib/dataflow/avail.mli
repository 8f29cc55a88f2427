(** Available expressions (forward, must), on the packed-bitvector
    solver: at a block's entry, which registers are sure to hold the
    value of which expression over the {e current} values of the
    expression's registers. The translation validator seeds its old-side
    entry environments with them, since a pass that reused a value across
    a block boundary relied on exactly such a fact. *)

open Mac_rtl

(** The right-hand side of a fact [d = key]. *)
type key =
  | Move of Rtl.operand
  | Bin of Rtl.binop * Rtl.operand * Rtl.operand
  | Un of Rtl.unop * Rtl.operand
  | Load of Rtl.mem * Rtl.signedness
  | Ext of Reg.t * Rtl.operand * Width.t * Rtl.signedness
      (** [Extract]'s source, position, width and signedness *)

type t

val compute : Mac_cfg.Cfg.t -> t
(** Facts die when their register or a register of their key is
    redefined; a store kills every load fact, a call every fact. The
    entry block starts with none. A block no path from the entry reaches
    holds the greatest fixed point, not Top: every block starts at the
    universe of facts. *)

val facts_in : t -> int -> (Reg.t * key) list
(** The facts available at block [b]'s entry, in ascending [compare]
    order. *)
