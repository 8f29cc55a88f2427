(** Linear forms over block-entry register values.

    The paper's [ClassifyMemoryReferencesIntoPartitions] and
    [CalculateRelativeOffsets] need, for every memory reference in a loop
    body, its effective address as {e loop-invariant base + constant
    offset} relative to the induction variable. We compute this by
    symbolically executing the (single-block) loop body: every register's
    value is tracked as a linear combination

    [const + sum_i coeff_i * sym_i]

    where each symbol is a register's value {e at block entry} (or an
    opaque token for values the analysis cannot express, e.g. loaded
    data). Two addresses belong to the same partition exactly when their
    symbolic terms agree; their relative offset is the difference of the
    constants. *)

open Mac_rtl

type sym = Entry of Reg.t | Opaque of int

type t = { const : int64; terms : (sym * int64) list }
(** Terms are sorted by symbol and never carry a zero coefficient, so
    structural equality of [terms] is semantic equality of the symbolic
    part. *)

val const : int64 -> t
val entry : Reg.t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul_const : t -> int64 -> t
val equal : t -> t -> bool
val same_terms : t -> t -> bool
val as_const : t -> int64 option
val pp : Format.formatter -> t -> unit

(** {1 Symbolic block execution} *)

type env

val initial_env : unit -> env
(** Every register initially maps to its own [Entry] symbol. *)

val eval_reg : env -> Reg.t -> t
val eval_operand : env -> Rtl.operand -> t

val step : env -> Rtl.kind -> env
(** Advance the environment across one instruction: linear arithmetic is
    tracked exactly, anything else assigns a fresh opaque symbol to the
    destination(s). *)

val address_of : env -> Rtl.mem -> t
(** The linear form of a memory reference's effective address in the given
    environment ([base]'s form plus the displacement). *)

(** {1 Code generation} *)

val materialize : Func.t -> t -> (Rtl.kind list * Rtl.operand) option
(** Code evaluating the form into an operand, over the current register
    values (so emit it where the form's entry symbols are live, e.g. a
    loop preheader). Power-of-two coefficients become shifts. [None] if
    the form involves opaque symbols. *)
