(* Exports nothing. *)
