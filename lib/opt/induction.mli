(** Induction-variable and trip-count analysis for simple loops
    (paper Fig. 2, [FindInductionVars]).

    The analysis is based on the {!Linform} symbolic execution of the loop
    body, so it is robust against the instruction shapes the classic
    optimizations leave behind (e.g. after CSE an increment may appear as
    [t = i + 1; ...; i = t], and the back branch may test [t] rather than
    [i]). *)

open Mac_rtl

type iv = { reg : Reg.t; step : int64 }
(** An induction variable: across one execution of the loop body, [reg]'s
    value changes by exactly [step] (a compile-time constant). *)

val basic_ivs : Mac_cfg.Loop.simple -> iv list
(** All registers with a constant non-zero per-iteration advance. *)

(** Trip-count structure extracted from the loop's back branch: the loop
    continues while [(iv + offset) cmp bound], where the [iv + offset]
    value is what the branch operand holds at the bottom of the body,
    expressed over the body-entry value of [iv.reg]. *)
type trip = {
  iv : iv;
  offset : int64;
      (** branch operand = body-entry value of [iv.reg] plus this *)
  bound : Rtl.operand;  (** loop-invariant, already defined at loop entry *)
  cmp : Rtl.cmp;  (** normalised with the induction side on the left *)
}

val trip_of : Mac_cfg.Loop.simple -> trip option
(** Recognises back branches whose one side is linear in a single
    induction variable (unit coefficient) and whose other side is
    invariant and not defined inside the body, with [cmp] one of [Lt],
    [Ltu] (up-counting), [Gt], [Gtu] (down-counting) or [Ne] after
    normalisation — the shapes whose remaining trip count is
    [(bound - iv - offset) / step] and for which the unroller can emit a
    divisibility check. *)
