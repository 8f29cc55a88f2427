type t = W8 | W16 | W32 | W64

let bits = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64
let bytes w = bits w / 8

let of_bytes = function
  | 1 -> Some W8
  | 2 -> Some W16
  | 4 -> Some W32
  | 8 -> Some W64
  | _ -> None

let of_bytes_exn n =
  match of_bytes n with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Width.of_bytes_exn: %d" n)

let equal (a : t) (b : t) = a = b
let compare a b = Stdlib.compare (bits a) (bits b)
let all = [ W8; W16; W32; W64 ]

let mask = function
  | W8 -> 0xFFL
  | W16 -> 0xFFFFL
  | W32 -> 0xFFFF_FFFFL
  | W64 -> -1L

let truncate w v = Int64.logand v (mask w)
let zero_extend = truncate

let sign_extend w v =
  match w with
  | W64 -> v
  | _ ->
    let shift = 64 - bits w in
    Int64.shift_right (Int64.shift_left v shift) shift

let log2_exact v =
  if Int64.compare v 0L <= 0 then None
  else
    let rec go i =
      if i >= 63 then None
      else if Int64.equal (Int64.shift_left 1L i) v then Some i
      else go (i + 1)
    in
    go 0

let to_string = function W8 -> "b" | W16 -> "h" | W32 -> "w" | W64 -> "q"
let pp ppf w = Format.pp_print_string ppf (to_string w)
