(** Packed bitvectors (native int words) — the dense-set substrate of the
    bitvector dataflow engine. All vectors in one analysis share a length;
    mixing lengths is a programming error and raises [Invalid_argument]. *)

type t

val create : int -> t
(** [create nbits] is the empty vector over the index range [0, nbits). *)

val full : int -> t
(** All indices set. *)

val length : t -> int
val copy : t -> t
val set : t -> int -> unit
val clear : t -> int -> unit
val get : t -> int -> bool
val equal : t -> t -> bool

val union_into : into:t -> t -> bool
(** [union_into ~into src] sets [into := into ∪ src]; returns whether
    [into] changed. *)

val inter_into : into:t -> t -> bool
val diff_into : into:t -> t -> bool
(** [diff_into ~into src] is [into := into − src]. *)

val for_all_set : (int -> bool) -> t -> bool
(** Whether [p] holds for every set index, asked in ascending order and
    stopping at the first that fails. *)

val fold_set : (int -> 'a -> 'a) -> t -> 'a -> 'a
