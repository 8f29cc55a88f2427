(* Packed bitvectors over OCaml's native int words. The dataflow engine
   spends its time in [union_into]/[inter_into]/[diff_into], which are
   straight word loops; everything else is glue. *)

type t = { words : int array; nbits : int }

let bpw = Sys.int_size (* 63 on 64-bit *)
let nwords nbits = if nbits = 0 then 0 else ((nbits - 1) / bpw) + 1
let create nbits = { words = Array.make (nwords nbits) 0; nbits }
let length t = t.nbits
let copy t = { t with words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.nbits then
    invalid_arg (Printf.sprintf "Bitv: index %d out of [0,%d)" i t.nbits)

let set t i =
  check t i;
  let w = i / bpw in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bpw))

let clear t i =
  check t i;
  let w = i / bpw in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bpw))

let get t i =
  check t i;
  (t.words.(i / bpw) lsr (i mod bpw)) land 1 = 1

(* All-ones with the unused tail of the last word kept zero, so that
   [equal]/[is_empty] can compare words blindly. *)
let full nbits =
  let t = create nbits in
  let nw = Array.length t.words in
  if nw > 0 then begin
    Array.fill t.words 0 nw (-1);
    let used = nbits - ((nw - 1) * bpw) in
    if used < bpw then t.words.(nw - 1) <- (1 lsl used) - 1
  end;
  t

let same_len a b =
  if a.nbits <> b.nbits then invalid_arg "Bitv: length mismatch"

let equal a b = a.nbits = b.nbits && a.words = b.words

(* Each returns whether [into] changed. *)
let union_into ~into src =
  same_len into src;
  let changed = ref false in
  for w = 0 to Array.length into.words - 1 do
    let v = into.words.(w) lor src.words.(w) in
    if v <> into.words.(w) then begin
      into.words.(w) <- v;
      changed := true
    end
  done;
  !changed

let inter_into ~into src =
  same_len into src;
  let changed = ref false in
  for w = 0 to Array.length into.words - 1 do
    let v = into.words.(w) land src.words.(w) in
    if v <> into.words.(w) then begin
      into.words.(w) <- v;
      changed := true
    end
  done;
  !changed

let diff_into ~into src =
  same_len into src;
  let changed = ref false in
  for w = 0 to Array.length into.words - 1 do
    let v = into.words.(w) land lnot src.words.(w) in
    if v <> into.words.(w) then begin
      into.words.(w) <- v;
      changed := true
    end
  done;
  !changed

let iter_set f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to bpw - 1 do
        if (word lsr b) land 1 = 1 then f ((w * bpw) + b)
      done
  done

let for_all_set p t =
  let rec word w =
    w >= Array.length t.words
    ||
    let bits = t.words.(w) in
    let rec bit b =
      b >= bpw
      || (((bits lsr b) land 1 = 0 || p ((w * bpw) + b)) && bit (b + 1))
    in
    (bits = 0 || bit 0) && word (w + 1)
  in
  word 0

let fold_set f t acc =
  let acc = ref acc in
  iter_set (fun i -> acc := f i !acc) t;
  !acc
