open Mac_a.M

let () = print_int (opened ())
