(** Direct-mapped data cache model.

    Coalescing does not change {e which} lines a loop touches, only how
    many instructions touch them, so the cache mostly contributes a
    workload-dependent constant — but modelling it keeps the simulated
    cycle counts honest (and lets the I-cache-pressure ablation mean
    something). Write-allocate, write-through (stores hit or miss like
    loads; no write-back traffic is modelled). *)

type t = {
  line_bytes : int;
  lines : int array;  (** tag per set; -1 = invalid *)
  line_shift : int;  (** log2 [line_bytes], or -1 when not a power of two *)
  set_mask : int;  (** set count - 1, valid when [line_shift >= 0] *)
  mutable hits : int;
  mutable misses : int;
}
(** The representation is exposed so the jit can specialize the
    power-of-two hit check straight into its fused load/store closures
    (same index computation as {!access}); this module remains the slow
    path for wild addresses and odd geometries, and the metrics oracle —
    inlined accesses must update [hits]/[misses] exactly as {!access}
    does. *)

val create : Mac_machine.Machine.dcache -> t

val access : t -> int64 -> [ `Hit | `Miss ]
(** Look up the line containing the address, filling it on a miss. A
    reference spanning two lines counts as an access to its first line
    (references here are at most 8 bytes and lines at least 16). *)

val hits : t -> int
val misses : t -> int
