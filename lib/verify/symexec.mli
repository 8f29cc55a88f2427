(** Symbolic evaluation of RTL into normalized value-graph terms.

    The translation validator ({!Tvalid}) executes a basic block (or a
    straight-line region) of both the input and the output of a pass under
    the {e same} symbolic entry environment and compares the resulting
    terms. Registers evaluate to terms over entry symbols; memory is a
    store/select chain resolved with an address-disambiguation oracle.

    Terms are kept in normal form by smart constructors — there is no
    separate normalization pass. The rules (constant folding, commutative
    ordering, select-over-store resolution, the legalizer's
    container/split shapes, the coalescer's extract shape) are documented
    in DESIGN.md §16. *)

open Mac_rtl

(** A symbolic unknown: a register's value at region entry, or the result
    of the [n]-th call event executed in the region. *)
type sym = SEntry of Reg.t | SCall of int

(** A memory unknown: the memory at region entry, or after the [n]-th
    call event. *)
type msym = MEntry | MCall of int

type term =
  | Sym of sym
  | Con of int64
  | Bin of Rtl.binop * term * term
  | Un of Rtl.unop * term
  | Ext of term * term * Width.t * Rtl.signedness
      (** [Ext (src, pos, w, s)]: {!Rtl.Extract} — bytes
          [pos mod 8 .. pos mod 8 + bytes w - 1] of [src], extended *)
  | Ins of term * term * term * Width.t
      (** [Ins (dst, src, pos, w)]: {!Rtl.Insert} *)
  | Read of mem * term * Width.t * Rtl.signedness
      (** a load of [w] bytes at the (effective) address term, extended *)

and mem = MSym of msym | MWrite of mem * term * Width.t * term
  (** [MWrite (m, addr, w, v)]: [m] with the low [bytes w] bytes of [v]
      stored at the effective address [addr] *)

val equal : term -> term -> bool
(** Structural equality with a physical-equality shortcut (terms form
    shared DAGs; the shortcut keeps comparison linear in practice). *)

val equal_mem : mem -> mem -> bool
val compare_term : term -> term -> int
(** A total order used for canonical operand/store ordering. *)

(** The evaluation context: the machine word gates the
    container-load/store rules (sound only where the legalizer emits
    them, i.e. on 64-bit-word machines whose aligned accesses trap on
    misalignment), and [cross_disjoint a wa b wb] is the caller's oracle
    for address pairs the syntactic base+offset test cannot split
    (byte ranges [a, a+wa) and [b, b+wb) never overlap). *)
type interner
(** Hash-consing state: every composite term/memory node built through
    the smart constructors below is interned here, so structurally equal
    values are physically equal and comparisons run on the value graph
    rather than the (potentially exponentially larger) tree it denotes.
    One interner per {!ctx}; both sides of a validation must share it. *)

type ctx = {
  word : Width.t;
  cross_disjoint : term -> int -> term -> int -> bool;
  it : interner;
}

val interner : unit -> interner
(** A fresh, empty arena. The validator allocates one per validation
    and threads it through every {!ctx} it creates, so the terms of the
    two sides stay physically comparable. *)

val ctx : ?interner:interner ->
  ?cross_disjoint:(term -> int -> term -> int -> bool) ->
  Width.t -> ctx
(** Default oracle: never disjoint. Allocates a fresh {!interner} unless
    one is supplied — contexts sharing an arena produce physically equal
    nodes for structurally equal values. *)

(** {1 Smart constructors} *)

val bin : ctx -> Rtl.binop -> term -> term -> term
val un : ctx -> Rtl.unop -> term -> term
val ext : ctx -> term -> term -> Width.t -> Rtl.signedness -> term
val read : ctx -> mem -> term -> Width.t -> Rtl.signedness -> term

val negate_cond : ctx -> term -> term option
(** [Some t'] when the term is a comparison and [t'] is its logical
    negation (used to match branch edges crossed by a polarity flip). *)

(** {1 Execution} *)

type event = { ev_index : int; ev_func : string; ev_args : term list }
(** A call executed in the region, in order. Both sides of a validation
    must produce the same event sequence for equivalence to hold. *)

type env = {
  regs : term Reg.Map.t;
  mem : mem;
  events : event list;  (** reversed *)
  ncall : int;
}

val empty_env : env
val lookup : env -> Reg.t -> term
(** Defaults to [Sym (SEntry r)]: a register never written in the region
    still holds its entry value. *)

val operand : env -> Rtl.operand -> term

val exec_insts : ctx -> env -> Rtl.inst list -> env

(** {1 Reporting} *)

val pp_term : Format.formatter -> term -> unit
val pp_mem : Format.formatter -> mem -> unit

val first_diff : term -> term -> term * term
(** Descend through equal constructors to the smallest differing subterm
    pair — the minimized mismatch a diagnostic reports. *)

val first_diff_mem : mem -> mem -> (term * term, mem * mem) Either.t
val term_size : term -> int
