(** Byte-addressable little-endian memory for the simulator.

    Address 0 is kept unmapped so that null-ish pointers fault; the harness
    allocates workload buffers at chosen addresses, which lets tests place
    arrays at deliberately misaligned or overlapping locations to exercise
    the run-time checks. *)

open Mac_rtl

exception Fault of string
(** Out-of-bounds access. *)

type t

val create : size:int -> t
(** [size] bytes, initially zero. *)

val size : t -> int

val bytes : t -> Bytes.t
(** The backing store, little-endian, for the jit's inlined access
    path. {!check} still owns the address policy (addresses below 8
    fault): callers must re-implement it exactly or fall back to
    {!load}/{!store} for the faulting cases. *)

val load : t -> addr:int64 -> width:Width.t -> sign:Rtl.signedness -> int64
val store : t -> addr:int64 -> width:Width.t -> int64 -> unit

val load_bytes : t -> addr:int64 -> len:int -> Bytes.t
val store_bytes : t -> addr:int64 -> Bytes.t -> unit

(** {1 Simple bump allocator for workload buffers} *)

type allocator

val allocator : ?base:int64 -> t -> allocator
(** Allocation starts at [base] (default 64). *)

val alloc : allocator -> ?align:int -> int -> int64
(** [alloc a ~align n] reserves [n] bytes aligned to [align] (default 8)
    and returns the address. *)

val alloc_misaligned : allocator -> ?align:int -> ?skew:int -> int -> int64
(** Like {!alloc} but the returned address is congruent to [skew] (default
    2) modulo [align] — for exercising the run-time alignment checks. *)
