(** Static disambiguation: the compile-time side of the paper's §2.2.

    The run-time alignment/alias checks of Fig. 5 are explicitly a
    {e fallback} for "when static analysis cannot prove alignment of the
    base address or non-overlap of two arrays". This module is that static
    side: given {!facts} about the function's entry values (parameter
    alignment, allocation provenance and sizes, known constants), it tries
    to {e prove} the property each run-time guard would test — and when it
    succeeds, the coalescer elides the guard.

    Every successful proof is packaged as a machine-checkable certificate.
    {!Mac_verify.Audit} re-verifies each certificate from the output RTL
    (re-solving the congruence analysis, re-deriving the trip count and
    extents), so a wrong elision is a verification failure rather than a
    silent miscompilation.

    Two provers:
    - {b alignment}: a window address [partition terms + window_start] is
      shown [≡ 0 (mod wide)] by combining, per term, the
      {!Mac_dataflow.Congruence} value of the register at the main loop's
      entry (which holds at {e every} iteration) with alignment facts
      about the entry symbols it mentions;
    - {b overlap}: the two partitions' whole-loop [\[lo, hi)] footprints
      (the symbolic counterpart of {!Checks.dynamic_bounds}) are each
      shown to stay inside a distinct allocation, so they cannot
      overlap. *)

open Mac_rtl
module Linform = Mac_opt.Linform
module Congruence = Mac_dataflow.Congruence

(** {1 Facts} *)

type facts = {
  aligns : (Reg.t * int) list;
      (** the entry value of the register is a multiple of [2^k] bytes *)
  allocs : (Reg.t * int * Linform.t) list;
      (** the entry value points to a distinct allocation (provenance id)
          of the given size in bytes — a linear form over entry values *)
  values : (Reg.t * int64) list;
      (** the entry value is this constant (seeds the congruence solver) *)
  nonnegs : Reg.t list;  (** the entry value is non-negative *)
}

val empty : facts
val no_facts : facts -> bool
val union : facts -> facts -> facts

(** {1 Certificates} *)

type align_cert = {
  ac_terms : (Linform.sym * int64) list;
      (** the partition's symbolic address part (loop-body-entry space) *)
  ac_window : int64;  (** window start offset *)
  ac_wide : int;  (** window width in bytes *)
  ac_claims : (Reg.t * Congruence.value) list;
      (** claimed congruence value, at the main loop's entry, of every
          [Entry] register the terms mention — the verifier checks each
          claim is implied by its own recomputed value, then replays the
          residue proof from the claims alone *)
}

type alias_side = {
  s_terms : (Linform.sym * int64) list;  (** partition terms *)
  s_root : Reg.t;  (** entry register owning the allocation *)
  s_alloc : int;  (** provenance id from the alloc fact *)
  s_off : Linform.t;
      (** partition base minus the allocation base, entry-value space *)
  s_lo : Linform.t;  (** whole-loop low offset relative to the allocation *)
  s_hi : Linform.t;
      (** whole-loop one-past-high offset relative to the allocation *)
}

type alias_cert = { ca : alias_side; cb : alias_side }

type cert = Align of align_cert | Alias of alias_cert

type elision = {
  target : string;  (** human description of the discharged guard *)
  reason : string;  (** e.g. ["align:congruence"], ["alias:provenance"] *)
  cert : cert;
}

val pp_elision : Format.formatter -> elision -> unit

(** {1 The oracle (proving side)} *)

type oracle
(** Facts plus a solved congruence analysis, bound to one function and one
    coalesced-loop candidate. *)

val oracle :
  facts:facts ->
  cfg:Mac_cfg.Cfg.t ->
  main_label:Rtl.label ->
  oracle option
(** [None] when the main loop's block cannot be found. Alias proofs
    additionally need the loop to have exactly one non-self predecessor
    (the dispatch block); when it does not, only alignment proofs are
    attempted. *)

val prove_alignment :
  oracle ->
  terms:(Linform.sym * int64) list ->
  window:int64 ->
  wide:Width.t ->
  align_cert option

val prove_noalias :
  oracle ->
  trip:Mac_opt.Induction.trip ->
  a:Checks.extent ->
  b:Checks.extent ->
  alias_cert option
(** [trip] must be the trip structure of the {e unrolled} main loop (the
    coalescer's [trip_mega]); the verifier re-derives it independently
    from the loop's back branch. *)

(** {1 Verification (audit side)}

    Both verifiers recompute everything from the function as it now is —
    their own {!Congruence.solve}, their own trip-count and extent
    derivation — and accept the certificate only if every claim is implied
    by the recomputed analysis and the replayed proof goes through. *)

val verify_align :
  facts:facts ->
  cfg:Mac_cfg.Cfg.t ->
  main_label:Rtl.label ->
  align_cert ->
  (unit, string) result

val verify_alias :
  facts:facts ->
  cfg:Mac_cfg.Cfg.t ->
  main_label:Rtl.label ->
  alias_cert ->
  (unit, string) result
(** Re-derives the main loop's trip count and both partitions' extents
    (via {!Mac_core.Partition} and {!Checks.extent_of}), re-runs the
    overlap proof, and requires the recomputed witness to match the
    certificate field for field. *)
