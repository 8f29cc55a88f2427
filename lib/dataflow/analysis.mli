(** The per-function analysis manager.

    One [t] per function being compiled: the CFG view, dominators,
    natural loops, liveness, reaching definitions and available copies
    are computed on first demand and memoised until a pass invalidates
    them. Passes declare what they {e preserve}; {!invalidate} drops
    only what a pass clobbers, so e.g. an instruction-local rewrite can
    keep dominators and loops alive across the coalescer's per-loop
    iteration instead of recomputing them a dozen times per function.

    Dependency closure is enforced internally: the dataflow facts embed
    the CFG view, so they are only preserved alongside [Cfg]; [Loops]
    is only preserved alongside [Dom]. [Dom]/[Loops] are pure
    block-index structures and may legitimately survive a CFG rebuild
    after a 1:1 instruction rewrite. *)

open Mac_rtl

type fact = Cfg | Dom | Loops | Live | Reach | Copies | Reuse | Tvalid

val fact_to_string : fact -> string

type tvalid_cache = ..
(** The translation validator's cross-pass memo (per-block normalized
    value-graph terms and per-body analysis summaries), declared
    extensible so lib/verify can store its concrete cache here without a
    dependency inversion. Entries are content-addressed — keyed by RTL
    digests recomputed from the live body on every lookup — so the slot
    carries no Cfg dependency: any pass may declare [Tvalid] preserved.
    It remains under the {!coherent} audit via the self-audit closure
    registered with {!set_tvalid}. *)

type t

val create : Func.t -> t
(** A fresh manager with nothing computed. {!liveness}, {!reaching} and
    {!copies} run the one packed-bitvector solver ({!Dataflow.solve_bits}). *)

val func : t -> Func.t

val cfg : t -> Mac_cfg.Cfg.t
val dom : t -> Mac_cfg.Dom.t
val loops : t -> Mac_cfg.Loop.t list
val liveness : t -> Liveness.t
val reaching : t -> Reaching.t
val copies : t -> Copies.t

val reuse :
  t -> key:string -> compute:(Func.t -> Reuse.summary) -> Reuse.summary
(** The memoised reuse/estimate slot. Summaries depend on the machine and
    on concrete argument bindings as well as on the body, so entries are
    keyed by a caller-chosen [key] (lib/core/estimate.ml derives it from
    the machine name and the argument vector). The computation lives
    above this library and is supplied as [compute]; the manager caches
    per key until a pass invalidates [Reuse] — like the other dataflow
    facts, preserving [Reuse] requires preserving [Cfg], which puts the
    cached profile under the {!coherent} audit. *)

val tvalid_slot : t -> tvalid_cache option
(** The validator cache, if registered and not invalidated since. *)

val set_tvalid :
  t -> audit:(tvalid_cache -> (unit, string) result) -> tvalid_cache -> unit
(** Register the validator cache together with its self-audit. The audit
    must re-derive every stored key from the stored content; {!coherent}
    runs it alongside the CFG probe, so a corrupted or poisoned mapping
    is reported exactly like a stale CFG view. *)

val invalidate : t -> preserves:fact list -> unit
(** Drop every memoised fact not listed in [preserves] (subject to the
    dependency closure above). Call after a pass changed the function. *)

val invalidate_all : t -> unit

val stats : t -> int * int
(** [(hits, misses)] over every accessor since {!create}. *)

val coherent : t -> (unit, string) result
(** Check that the memoised CFG view still matches the function body
    instruction for instruction (uid and kind), and that the registered
    {!tvalid_cache} passes its self-audit. An [Error] means a pass
    mutated the function but declared a [preserves] set that kept a
    stale CFG (or a cache entry whose key no longer matches its
    content) — the verifier surfaces this as an error diagnostic. *)
