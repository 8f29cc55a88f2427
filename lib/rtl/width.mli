(** Widths of memory references and sub-register values.

    The paper coalesces narrow references of width [N] bits into wide
    references of width [N x c] where [c] is a power of two. All widths the
    evaluated machines can name are bytes (8), shortwords/halfwords (16),
    longwords/words (32) and quadwords/doublewords (64). *)

type t = W8 | W16 | W32 | W64

val bits : t -> int
(** [bits w] is the size of [w] in bits. *)

val bytes : t -> int
(** [bytes w] is the size of [w] in bytes. *)

val of_bytes_exn : int -> t
(** [of_bytes_exn n] is the width of [n] bytes; raises
    [Invalid_argument] unless [n] is 1, 2, 4 or 8. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Orders widths by size. *)

val all : t list
(** All widths, narrowest first. *)

val mask : t -> int64
(** [mask w] is an all-ones bit pattern of [bits w] bits, e.g.
    [mask W16 = 0xFFFFL]. *)

val truncate : t -> int64 -> int64
(** [truncate w v] keeps the low [bits w] bits of [v] (zero-extending into
    the 64-bit register model). *)

val sign_extend : t -> int64 -> int64
(** [sign_extend w v] interprets the low [bits w] bits of [v] as a signed
    value and extends it to 64 bits. *)

val zero_extend : t -> int64 -> int64
(** [zero_extend w v] is a synonym for {!truncate}. *)

val log2_exact : int64 -> int option
(** [log2_exact v] is [Some n] when [v = 2^n] for [0 <= n < 63], [None]
    otherwise (including all non-positive [v]). Widths, widening factors
    and alignment masks are all powers of two, so this is the shared
    "is it a shift?" test of the strength reducer, the linear-form code
    generator and the run-time check emitter. *)

val pp : Format.formatter -> t -> unit
(** Prints the vpo-ish name: [b], [h], [w], [q]. *)

val to_string : t -> string
