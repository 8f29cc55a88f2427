module W = Mac_a.M

let () = print_int (W.aliased ())
