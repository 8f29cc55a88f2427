(** Symbolic reuse-distance model for affine memory-access streams.

    The static estimator (lib/core/estimate.ml) compresses every load and
    store of a loop into an {e access}: a byte window of [width] bytes
    that starts at [start] and advances [stride] bytes on each of [count]
    iterations. This module is the pure arithmetic over such streams —
    classifying their reuse (self-temporal, self-spatial, strided, or
    streaming), counting the distinct cache lines a sweep touches (the
    cold-miss count when every line survives until its next use), and
    counting lines with all cross-iteration reuse denied (the thrashing
    bound). Group reuse between references that the coalescer's
    partitioner would place together is handled by clustering same-stride
    accesses and counting the union of their windows exactly.

    Line counting is exact: a sweep is periodic in blocks of
    [line / gcd(stride, line)] iterations, so the union is enumerated as
    merged line intervals for as many blocks as the window span requires
    and extrapolated with the (then constant) per-block marginal.

    Everything here is plain integer arithmetic — no RTL, no machine
    description — so the model can be unit-tested in isolation and reused
    by both the whole-function estimator and the profitability oracle. *)

(** Self-reuse classification of one access stream against a cache line
    of [line] bytes. *)
type klass =
  | Temporal  (** stride 0: every iteration re-touches the same bytes *)
  | Spatial  (** |stride| < line: consecutive iterations share lines *)
  | Strided
      (** |stride| >= line but not a multiple: lines shared periodically *)
  | Streaming  (** line-multiple stride: every iteration opens new lines *)

val klass_to_string : klass -> string

type access = {
  start : int;  (** lowest byte of the first iteration's window *)
  stride : int;  (** byte advance per iteration; negative or zero allowed *)
  width : int;  (** contiguous bytes touched per iteration *)
  count : int;  (** iterations *)
  loads : int;  (** load references represented, per iteration *)
  stores : int;  (** store references represented, per iteration *)
}

val classify : line:int -> access -> klass

val sweep_lines : line:int -> stride:int -> count:int -> (int * int) list -> int
(** [sweep_lines ~line ~stride ~count windows] is the number of distinct
    cache lines in the union over iterations [i < count] of the byte
    windows [(o, w)] shifted to [o + i*stride .. o + i*stride + w). This
    is the predicted miss count of the swept stream when every line
    survives between touches (perfect reuse). *)

val sweep_lines_cold :
  line:int -> stride:int -> count:int -> (int * int) list -> int
(** Like {!sweep_lines} but with cross-iteration reuse denied: the sum
    over iterations of the lines each iteration's windows span (windows
    of the same iteration still share). The predicted miss count when the
    reuse distance exceeds the cache capacity (thrashing). *)

(** A cluster of same-stride, same-count accesses whose windows interlock
    — the model's unit of group reuse, mirroring the coalescer's
    partitions (references off a common base). *)
type group = {
  gstride : int;
  gcount : int;
  gwindows : (int * int) list;  (** (start, width) per member *)
  gloads : int;  (** loads per iteration, summed over members *)
  gstores : int;
  gaccs : access list;
}

val group_accesses : line:int -> access list -> group list
(** Cluster accesses by (stride, count), splitting clusters whose windows
    are further apart than one stride-or-line step (independent streams
    are counted independently; overlap between distant streams is not
    modelled). *)

val group_lines : line:int -> group -> int
(** Distinct lines of the member-window union over the sweep. *)

val group_lines_cold : line:int -> group -> int

val group_extent : group -> int * int
val group_bytes_per_iter : group -> int
(** Bytes the group touches on one iteration (window union, clamped to
    the stride advance for overlapping members) — the group's
    contribution to the per-iteration footprint used as the
    reuse-distance proxy. *)

(** {1 Residency}

    A coarse FIFO model of what the last few constructs left in the
    cache, used to credit reuse between {e siblings} (a loop re-reading
    what a previous loop wrote). Tracks byte intervals up to the cache
    capacity. *)

type residency

val residency : size:int -> residency

val consume : residency -> ?density:float -> lo:int -> hi:int -> unit -> int
(** Effective bytes of [lo, hi) currently resident (to be credited
    against that construct's cold misses); then admits [lo, hi),
    evicting the oldest intervals beyond capacity. [density] is the
    fraction of lines in the window its stream actually touches (1.0
    for spatial sweeps; [line/stride] for streaming ones): resident
    credit for a byte is the product of the admitted and querying
    densities, each byte counted once against the densest resident
    window covering it. *)

(** {1 Profiles}

    The record types the estimator fills in. *)

type ref_profile = {
  r_start : int;
  r_stride : int;
  r_width : int;
  r_count : int;
  r_loads : int;
  r_stores : int;
  r_klass : klass;
  r_lines : int;  (** standalone distinct lines over the sweep *)
}

type loop_profile = {
  l_label : string;
  l_depth : int;
  l_trip : int;  (** iterations per entry *)
  l_entries : int;  (** times the loop was entered *)
  l_refs : ref_profile list;  (** per-entry access streams *)
  l_misses : int;  (** predicted d-cache misses attributed to the loop *)
  l_cycles : int;  (** predicted cycles inside, miss penalties included *)
  l_insts : int;
  l_merged : bool;  (** cross-iteration reuse was credited *)
  l_approx : bool;  (** some construct inside was approximated *)
}

type summary = {
  s_insts : int;
  s_cycles : int;
  s_loads : int;
  s_stores : int;
  s_misses : int;  (** predicted d-cache misses *)
  s_icache_misses : int;
  s_loops : loop_profile list;
  s_approx : bool;
}
