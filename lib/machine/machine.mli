(** Machine descriptions.

    The coalescing transformation is machine-independent code operating over
    a machine-dependent description, vpo style: which widths have native
    loads/stores, whether unaligned wide accesses exist, how expensive
    register field extraction/insertion is, instruction issue costs and
    latencies for the scheduler, and cache geometry for the unrolling
    heuristic and the simulator.

    All costs are in cycles and were derived from the architecture manuals
    cited by the paper ([Digi92], [Moto91], [Moto85]); they are meant to
    reproduce the paper's relative behaviour, not exact hardware timing. *)

open Mac_rtl

type dcache = {
  size_bytes : int;
  line_bytes : int;
  miss_penalty : int;  (** extra cycles on a data-cache miss *)
}

type t = {
  name : string;
  word : Width.t;
      (** the widest memory reference the machine supports; coalescing
          widens narrow references up to this width *)
  load_widths : Width.t list;  (** widths with a native (aligned) load *)
  store_widths : Width.t list;
  unaligned_widths : Width.t list;
      (** widths that also have an unaligned access form (Alpha LDQ_U) *)
  has_native_insert : bool;
      (** false when inserting a narrow value into a register requires a
          mask/shift/or sequence (MC88100) *)
  extract_cost : Width.t -> int;
  insert_cost : Width.t -> int;
  alu_cost : Rtl.binop -> int;
  move_cost : int;
  load_cost : Width.t -> aligned:bool -> int;
  store_cost : Width.t -> aligned:bool -> int;
  load_latency : int;
      (** cycles until a loaded value is usable (scheduler + simulator
          stall model) *)
  mul_latency : int;
  branch_cost : int;
  call_cost : int;
  icache_bytes : int;
  icache_miss_penalty : int;
      (** extra cycles on an instruction-fetch miss (only observable with
          the simulator's [model_icache]); the evaluation machines set it
          equal to the data-cache penalty, matching the single miss cost
          the original ABL8 numbers were produced with *)
  bytes_per_inst : int;  (** estimate used by the unrolling heuristic *)
  dcache : dcache;
}

val legal_load : t -> Width.t -> aligned:bool -> bool
val legal_store : t -> Width.t -> aligned:bool -> bool

val widen_factor : t -> Width.t -> int
(** [widen_factor m narrow] is the paper's [c]: how many naturally-aligned
    [narrow] values fit in the machine word ([Width.bytes m.word /
    Width.bytes narrow]); 1 when no widening is possible. *)

val inst_cost : t -> Rtl.kind -> int
(** Issue cost of an instruction, excluding cache effects and stalls.
    Illegal memory widths are priced as if legal (the legalizer must have
    removed them before costing matters). *)

val latency : t -> Rtl.kind -> int
(** Cycles before the instruction's results may be consumed; at least its
    issue cost. *)

(** {1 Precomputed cost tables}

    The cost fields of {!t} are closures; pricing an instruction means a
    pattern match per call. {!Costs.of_machine} evaluates them once into
    dense arrays indexed by {!binop_index}/{!width_index} so bulk
    consumers (the simulator's pre-decoder) pay an array read instead. *)

val binop_index : Rtl.binop -> int
(** Dense index of a binop (compare operators get distinct slots). *)

val width_index : Width.t -> int
(** Dense index of a width, narrowest first (same order as
    {!Mac_rtl.Width.all}). *)

module Costs : sig
  type machine := t

  type t = {
    alu : int array;  (** issue cost, indexed by {!binop_index} *)
    alu_latency : int array;
        (** result latency per binop: issue cost, or [mul_latency] for
            multiply/divide/remainder *)
    extract : int array;  (** indexed by {!width_index} *)
    insert : int array;
    load_aligned : int array;
    load_unaligned : int array;
    store_aligned : int array;
    store_unaligned : int array;
    move : int;
    branch : int;
    call : int;
    load_latency : int;
  }

  val of_machine : machine -> t
  (** Agrees with {!inst_cost}/{!latency} on every instruction, by
      construction (it calls the same closures, once per entry). *)
end

val alpha : t
(** DEC Alpha (21064-class): 64-bit word; only 32/64-bit loads and stores;
    unaligned quadword access; single-cycle extract and cheap insert
    (EXTxx/INSxx/MSKxx). The machine where coalescing pays most. *)

val mc88100 : t
(** Motorola 88100: 32-bit word; native byte/half/word loads; single-cycle
    bit-field extract but {e no} insert instruction (mask/shift/or
    sequence), which is why coalescing stores loses on it. *)

val mc68030 : t
(** Motorola 68030: CISC; narrow memory operations cost the same as wide
    ones and bit-field extract/insert are multi-cycle, so coalescing always
    loses. *)

val all : t list
(** The three evaluation platforms of the paper, in paper order. *)

val by_name : string -> t option
(** Look up any of the machines above (including [test32]) by [name],
    case-insensitively. *)
