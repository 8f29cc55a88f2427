val aliased : unit -> int
val opened : unit -> int
val pathed : unit -> int
val samelib : unit -> int
val unused : unit -> int
val self_only : unit -> int
val seam_v : unit -> int
