(** Lowering typed MiniC to RTL.

    Loop statements compile to the bottom-test shape vpo produces
    (Fig. 1b): a zero-trip guard in front, a single-block body, and a
    conditional back branch — exactly what {!Mac_cfg.Loop.simple_of}
    recognises and the coalescer transforms. [break]/[continue] introduce
    extra blocks and simply make the loop ineligible for coalescing.

    Memory widths and load extensions come from the element types;
    pointer arithmetic scales by element size (power-of-two sizes compile
    to shifts). *)

open Mac_rtl

exception Error of string

val program : Ast.program -> Func.t list
(** Type-check and lower every function. *)

val compile : string -> Func.t list
(** Parse, type-check and lower a source string. *)

(** {1 Disambiguation facts}

    Parameter attributes ([aligned(N)], [noalias], [extent(e)],
    [nonneg]) export as facts about the function's entry registers, in
    minic's own vocabulary so this library stays independent of the
    optimizer; [Mac_vpo.Pipeline] converts them to
    [Mac_core.Disambig.facts]. *)

type size_form = { s_const : int64; s_terms : (Reg.t * int64) list }
(** [const + sum coeff * σ(reg)] — an allocation size in bytes as a
    linear form over entry values. *)

type param_fact =
  | Falign of Reg.t * int  (** entry value is a multiple of [2^k] bytes *)
  | Falloc of Reg.t * int * size_form
      (** distinct allocation (provenance id = parameter index) of the
          given size; exported only when the parameter has {e both}
          [noalias] and a linear [extent] *)
  | Fnonneg of Reg.t  (** entry value is non-negative *)

val param_facts : Ast.func -> param_fact list
(** Facts seeded by [fd]'s parameter attributes. Parameter [i] is
    [Reg.make i], matching {!func}'s lowering contract. Non-power-of-two
    alignments and non-linear extents are silently dropped. *)
