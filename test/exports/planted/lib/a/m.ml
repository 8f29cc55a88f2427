let self_only () = 1
let aliased () = self_only ()
let opened () = 2
let pathed () = 3
let samelib () = 4
let unused () = 5
let seam_v () = 6
