(* No interface: its top-level values are its exports. *)
let live_top = 1
let dead_top = 2
