(** Pre-decoding, the jit's first stage: compile a {!Mac_rtl.Func.t} once
    per [(function, machine)] into a flat array of pre-resolved
    instructions.

    The naive interpreter re-derives per-instruction facts on every
    execution: label lookups per jump, cost/latency closure calls per
    instruction, [Rtl.defs]/[Rtl.uses] list allocation per instruction,
    access-legality checks per memory reference. All of that is invariant
    for a given function on a given machine, so the decoder pays for it
    once per decode (paper-style: hoist work out of the hot loop and pay
    for it at loop entry):

    - branch and jump targets become instruction indices;
    - per-opcode issue cost and latency are baked in from the machine's
      precomputed cost tables ({!Mac_machine.Machine.Costs});
    - read registers become int arrays (no list allocation at run time),
      cut to the registers that can stall a read (see [slot.reads]);
    - memory-access legality, width-in-bytes and misalignment tolerance
      are precomputed (only the address check stays dynamic);
    - each non-pseudo instruction gets its synthetic instruction-fetch
      address (bases handed out in decode = first-call order);
    - labels get dense visit-counter slots, replacing the per-executed
      label hashtable.

    A decode cache ([t]) lives for one simulation run, so recursive and
    repeated calls to the same function reuse the decoded form. All
    types are transparent: the closure compiler in {!Jit} is the
    intended consumer. *)

open Mac_rtl
module Machine = Mac_machine.Machine

type opnd = Oreg of int | Oimm of int64

type access = {
  abase : int;  (** base register id *)
  adisp : int64;
  awidth : Width.t;
  wbytes : int64;  (** [Width.bytes awidth], as the modulus operand *)
  aaligned : bool;
  alegal : bool;  (** the machine has this access form at this width *)
  atolerate : bool;
      (** misaligned aligned-contract access proceeds at a penalty *)
}

type op =
  | Omove of int * opnd
  | Obinop of Rtl.binop * int * opnd * opnd
  | Ounop of Rtl.unop * int * opnd
  | Oload of { dst : int; acc : access; sign : Rtl.signedness }
  | Ostore of { src : opnd; acc : access }
  | Oextract of {
      dst : int;
      src : int;
      pos : opnd;
      width : Width.t;
      sign : Rtl.signedness;
    }
  | Oinsert of { dst : int; src : opnd; pos : opnd; width : Width.t }
  | Ojump of int
      (** target pc — the index of the [Label] instruction itself, which
          therefore still gets its visit counted; -1 if undefined *)
  | Obranch of { cmp : Rtl.cmp; l : opnd; r : opnd; target : int }
  | Olabel of int  (** dense visit-counter slot *)
  | Ocall of { dst : int; (* -1 = none *) func : string; args : opnd array }
  | Oret of opnd option
  | Onop

type slot = {
  op : op;
  issue : int;  (** [max 1 (Machine.inst_cost machine kind)] *)
  latency : int;  (** [Machine.latency machine kind] *)
  reads : int array;
      (** the operand-stall set: the {e slow} registers this instruction
          reads, each once. A register is slow when some instruction of
          the function defines it with a ready time that can pass the
          next instruction's clock: a load, or a def whose [latency]
          exceeds its [issue] (a multiply, divide or remainder whose
          [mul_latency] exceeds the ALU cost). The cut is exact: a fast
          def at clock [c] makes its register ready at
          [c + latency <= c + issue], which is at most the next
          instruction's clock, and the clock never goes down, so a
          register whose every def is fast can never stall a read. The
          stall-set is therefore empty for most instructions. *)
  sets_ready : bool;
      (** the instruction defines a slow register, so its ready time
          must be recorded (a later fast def of the same register must
          overwrite an earlier slow one). Always true of a load. The
          ready time of a register that is not slow is never read. *)
  fetch : int64;  (** synthetic fetch address; -1 for Label/Nop *)
}

type fn = {
  fname : string;
  code : slot array;
  nregs : int;  (** activation frame size: the registers mentioned *)
  params : int array;
  frame_bytes : int;
  fp : int;  (** frame-pointer register id, -1 if none *)
  label_names : Rtl.label array;  (** dense slot -> label name *)
  counters : int array;  (** per-slot visit counts, reset per [create] *)
}

type t
(** The decode cache: one entry per function actually called, decoded on
    first use. Create one per simulation run. *)

val create : machine:Machine.t -> Func.t list -> t

val find : t -> string -> fn option
(** Decode-on-demand lookup; [None] for undefined functions. *)

val label_totals : t -> (Rtl.label, int) Hashtbl.t
(** Executed-label visit counts summed across all decoded functions,
    merged by label name. *)

val seconds : t -> float
(** Seconds spent decoding so far, on the monotonic clock — the "decode"
    phase of the simulator profile ([mcc --explain=sim]). *)
