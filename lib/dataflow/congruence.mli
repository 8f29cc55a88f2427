(** Congruence analysis: per-register [stride·⟨sym⟩ + offset (mod 2^k)].

    A forward abstract interpretation over RTL that tracks, for every
    register at every program point, a claim of the form

    {v    value ≡ stride · σ(sym) + offset   (mod 2^k)    v}

    where [σ(sym)] denotes the (unknown) value register [sym] held at
    {e function entry}. [k = 64] is an exact symbolic equality (arithmetic
    is 64-bit, so mod 2^64 claims are wrap-around-correct by construction);
    smaller [k] retains only the low [k] bits of the relationship — exactly
    what alignment reasoning needs. The lattice has finite height (joins
    only shrink [k] or erase the symbol), so the solver terminates without
    widening.

    The pass itself knows nothing about alignment {e facts}; callers that
    know "σ(r) is a multiple of 2^a" supply that knowledge through the
    [sym_align] callback of {!residue}. Known-constant entry values (e.g. a
    structurally fixed row stride) are seeded through [?consts] of
    {!solve}. *)

open Mac_rtl

(** Abstract value. [Lin] is the congruence claim above, with the
    invariants enforced by construction: [1 <= k <= 64]; [stride] and [off]
    are reduced mod [2^k]; [stride = 0L] iff [sym = None]. *)
type value =
  | Top
  | Lin of { sym : Reg.t option; stride : int64; off : int64; k : int }

val top : value
val const : int64 -> value
(** Exact constant: [Lin {sym = None; stride = 0; off = c; k = 64}]. *)

val entry : Reg.t -> value
(** The register's own entry value: [Lin {sym = Some r; stride = 1;
    off = 0; k = 64}]. *)

val make : sym:Reg.t option -> stride:int64 -> off:int64 -> k:int -> value
(** Normalising constructor (reduces mod [2^k], drops a zero-stride
    symbol, collapses [k <= 0] to {!top}). *)

val value_equal : value -> value -> bool
val join : value -> value -> value

val implies : actual:value -> claim:value -> bool
(** [implies ~actual ~claim] is true when every concrete value satisfying
    [actual] also satisfies [claim] — the refinement check certificate
    verification uses: a recomputed value must imply every claimed one. *)

val exact : value -> int64 option
(** [Some c] iff the value is the exact constant [c]. *)

val exact_affine : value -> (Reg.t * int64) option
(** [Some (r, off)] iff the value is exactly [σ(r) + off] ([k = 64],
    [stride = 1]) — the shape base-pointer provenance resolution needs. *)

val v2 : int64 -> int
(** 2-adic valuation: trailing zero count, with [v2 0 = 64]. *)

val residue :
  ?sym_align:(Reg.t -> int) -> value -> bits:int -> int64 option
(** [residue v ~bits] is [Some (v mod 2^bits)] when the claim determines
    the low [bits] bits of the value. [sym_align r] is the caller's
    promise that [σ(r)] is a multiple of [2^(sym_align r)] (default [0]):
    the symbolic part [stride·σ(sym)] vanishes mod [2^bits] whenever
    [v2 stride + sym_align sym >= bits]. *)

val add : value -> value -> value
val mul_const : value -> int64 -> value

val pp_value : Format.formatter -> value -> unit

(** {1 States and the solver} *)

type state
(** A finite map from registers to values. A register absent from the map
    was never redefined on any path from entry, so it still holds its
    entry value: lookups default to {!entry} (or the seeded constant). *)

val value_of : state -> Reg.t -> value

val transfer : (Reg.t -> value) -> Rtl.kind -> (Reg.t * value) option
(** [transfer get kind] is the register [kind] defines and its value after
    it, reading each register operand through [get]; [None] when [kind]
    defines no register. *)

type t
(** A block-level fixpoint over a {!Mac_cfg.Cfg.t}. *)

val solve : ?consts:(Reg.t * int64) list -> Mac_cfg.Cfg.t -> t
(** [consts] seeds function-entry registers with known constant values
    (so [σ(r)] collapses to the constant everywhere). Sweeps the blocks
    in reverse postorder until nothing changes, re-transferring a block
    only when a predecessor was first reached or changed its out-state;
    the result is the state round-robin sweeps reach. *)

val block_in : t -> int -> state
val block_out : t -> int -> state

