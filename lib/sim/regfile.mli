(** Unboxed register file: one activation's register values, stored flat
    in a [Bytes] buffer (8 bytes per register, indexed by {!Mac_rtl.Reg}
    id). Both interpreter engines go through this accessor layer, so
    a register write costs an unboxed 64-bit store — no box allocation,
    no [caml_modify] — where an [int64 array] would pay both.

    Indices are bounds-checked by the underlying bytes primitives; the
    engines size the file from the registers the function actually
    mentions, so in-range access is guaranteed by decode. *)

type t

val create : int -> t
(** [create n] is an [n]-register file, all zero. *)

val size : t -> int
val get : t -> int -> int64
val set : t -> int -> int64 -> unit

external uget : t -> int -> int64 = "%caml_bytes_get64u"
external uset : t -> int -> int64 -> unit = "%caml_bytes_set64u"
(** Unchecked accessors for the jit's compiled closures, addressed by
    BYTE offset — register id [lsl 3], which the jit folds into each
    closure at compile time. Declared as compiler primitives in this
    interface so a register transfer compiles to a single unboxed
    64-bit load/store at every use site, independent of cross-module
    inlining (dune's dev profile passes [-opaque], which would turn a
    plain function wrapper into an out-of-line call that boxes its
    [int64] on every simulated instruction). The bounds check is
    provably dead for decode-produced ids, which size the file; never
    pass an offset that was not derived from one. *)
