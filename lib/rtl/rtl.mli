(** Register transfer list (RTL) instructions.

    This is the machine-level IR everything in the repository operates on,
    modelled on the RTLs used by vpo and by Figure 1 of the paper. A
    function body is a flat list of instructions; labels delimit basic
    blocks. Registers are 64-bit (see {!Reg}); memory is byte-addressed and
    little-endian.

    Every instruction carries a unique id ([uid]) assigned by {!Func} so
    analyses can attach side tables (partitions, schedules, hazards) without
    mutating the IR. *)

type label = string

(** Comparison operators. The [u]-suffixed ones compare unsigned. *)
type cmp = Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu

(** Binary ALU operations on 64-bit registers. Shifts use the low 6 bits of
    the shift amount. [Cmp c] yields 1 or 0. *)
type binop =
  | Add
  | Sub
  | Mul
  | Div  (** signed; traps on zero divisor *)
  | Rem  (** signed; traps on zero divisor *)
  | And
  | Or
  | Xor
  | Shl
  | Lshr  (** logical shift right *)
  | Ashr  (** arithmetic shift right *)
  | Cmp of cmp

(** Unary operations. [Sext w]/[Zext w] treat the operand's low
    [Width.bits w] bits as a w-wide value and extend. *)
type unop = Neg | Not | Sext of Width.t | Zext of Width.t

type operand = Reg of Reg.t | Imm of int64

type signedness = Signed | Unsigned

(** A memory effective address in base+displacement form, as produced for
    array and pointer references. [aligned] is the contract of a normal
    load/store (the machine traps if the address is not a multiple of the
    width); [aligned = false] models the Alpha's unaligned quadword
    accesses, which silently access the enclosing naturally-aligned
    quadword. *)
type mem = { base : Reg.t; disp : int64; width : Width.t; aligned : bool }

type kind =
  | Move of Reg.t * operand
  | Binop of binop * Reg.t * operand * operand
  | Unop of unop * Reg.t * operand
  | Load of { dst : Reg.t; src : mem; sign : signedness }
  | Store of { src : operand; dst : mem }
  | Extract of {
      dst : Reg.t;
      src : Reg.t;
      pos : operand;  (** byte offset; only its low 3 bits are used *)
      width : Width.t;
      sign : signedness;
    }
      (** [dst <- extend (bytes pos .. pos+bytes(width)-1 of src)]: the
          register-to-register field extraction the Alpha (EXTxx) and the
          88100 (ext/extu) provide for picking narrow data out of a wide
          register. *)
  | Insert of { dst : Reg.t; src : operand; pos : operand; width : Width.t }
      (** [dst <- dst with bytes pos .. pos+bytes(width)-1 replaced by the
          low bytes of src]. Note [dst] is read and written. Machines
          without such an instruction (88100, 68030 bit-fields are slow)
          price it as a multi-instruction sequence. *)
  | Jump of label
  | Branch of { cmp : cmp; l : operand; r : operand; target : label }
      (** conditional: if [l cmp r] goto target, else fall through *)
  | Label of label
  | Call of { dst : Reg.t option; func : string; args : operand list }
  | Ret of operand option
  | Nop

type inst = { uid : int; kind : kind }

(** {1 Queries} *)

val defs : kind -> Reg.t list
(** Registers written by the instruction. For [Insert], [dst] is included
    (it is also read). *)

val uses : kind -> Reg.t list
(** Registers read by the instruction (with duplicates removed). *)

val is_load : kind -> bool
val is_memory : kind -> bool

val mem_of : kind -> mem option
(** The memory reference of a load or store. *)

val branch_targets : kind -> label list
val is_terminator : kind -> bool
(** True for [Jump], [Branch] and [Ret]. *)

val has_side_effect : kind -> bool
(** True for stores, calls, returns and control flow: instructions dead-code
    elimination must keep even if their results are unused. *)

(** {1 Transformation} *)

val map_regs : (Reg.t -> Reg.t) -> kind -> kind
val map_labels : (label -> label) -> kind -> kind

(** {1 Evaluation helpers (shared by simulator and constant folder)} *)

exception Division_by_zero

val eval_binop : binop -> int64 -> int64 -> int64
(** Raises {!Division_by_zero} for [Div]/[Rem] with a zero divisor. *)

val eval_unop : unop -> int64 -> int64
val eval_cmp : cmp -> int64 -> int64 -> bool

val extract_bytes :
  int64 -> pos:int -> width:Width.t -> sign:signedness -> int64
(** Semantics of [Extract] on a 64-bit register value; [pos] is taken
    modulo 8. *)

val insert_bytes : int64 -> src:int64 -> pos:int -> width:Width.t -> int64
(** Semantics of [Insert]; [pos] is taken modulo 8. *)

(** {1 Printing} *)

val pp_inst : Format.formatter -> inst -> unit
val to_string : kind -> string
