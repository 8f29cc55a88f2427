(** Safety analysis for a coalescing group (paper Fig. 4, [IsHazard]).

    A wide {e load} is inserted just before the group's first (dominating)
    narrow load; every member load becomes an extract of the wide value, so
    any intervening write to a member's bytes makes the transformation
    unsafe. A wide {e store} is inserted at the group's last (dominated)
    narrow store; member stores become inserts into a buffer register, so
    any intervening read of (or conflicting write to) a member's bytes sees
    the delay.

    Within the group's own partition these conflicts are decided exactly by
    comparing constant offsets. Against a {e different} partition nothing
    is known statically; following the paper ([DoAliasDetection]) the
    conflict is recorded as an alias pair to be checked by code in the loop
    preheader at run time. Calls and returns are barriers. *)

type alias_pair = { this : Partition.t; other : Partition.t }
(** Possible aliasing between the group's partition and another one that
    must be refuted at run time for the coalesced loop to be entered. *)

type verdict =
  | Safe of alias_pair list
      (** safe, provided every listed pair is checked at run time *)
  | Unsafe of string  (** rejected, with the reason *)

val check :
  body:Mac_rtl.Rtl.inst list ->
  analysis:Partition.analysis ->
  group:Partition.group ->
  verdict
