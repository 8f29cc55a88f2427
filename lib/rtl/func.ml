type t = {
  name : string;
  mutable params : Reg.t list;
  mutable body : Rtl.inst list;
  mutable next_reg : int;
  mutable next_label : int;
  mutable next_uid : int;
  mutable frame_bytes : int;
  mutable fp_reg : Reg.t option;
}

let create ~name ~params =
  let max_param =
    List.fold_left (fun acc r -> Stdlib.max acc (Reg.id r)) (-1) params
  in
  {
    name;
    params;
    body = [];
    next_reg = max_param + 1;
    next_label = 0;
    next_uid = 0;
    frame_bytes = 0;
    fp_reg = None;
  }

let fresh_reg t =
  let r = Reg.make t.next_reg in
  t.next_reg <- t.next_reg + 1;
  r

let fresh_label ?(hint = "L") t =
  let l = Printf.sprintf "%s%d" hint t.next_label in
  t.next_label <- t.next_label + 1;
  l

let inst t kind =
  let uid = t.next_uid in
  t.next_uid <- t.next_uid + 1;
  { Rtl.uid; kind }

(* Advance the generators past anything an instruction mentions, so that
   [fresh_reg]/[fresh_label] never collide even when callers hand-assemble
   bodies instead of using [inst]. *)
let trailing_int label =
  let n = String.length label in
  let rec start i =
    if i > 0 && label.[i - 1] >= '0' && label.[i - 1] <= '9' then
      start (i - 1)
    else i
  in
  let s = start n in
  if s = n then None else int_of_string_opt (String.sub label s (n - s))

let note_inst t (i : Rtl.inst) =
  if i.uid >= t.next_uid then t.next_uid <- i.uid + 1;
  List.iter
    (fun r -> if Reg.id r >= t.next_reg then t.next_reg <- Reg.id r + 1)
    (Rtl.defs i.kind @ Rtl.uses i.kind);
  match i.kind with
  | Rtl.Label l -> (
    match trailing_int l with
    | Some n when n >= t.next_label -> t.next_label <- n + 1
    | _ -> ())
  | _ -> ()

let append t kind =
  let i = inst t kind in
  note_inst t i;
  t.body <- t.body @ [ i ]

let set_body t body =
  List.iter (note_inst t) body;
  t.body <- body

let refresh_uids t insts =
  List.map (fun (i : Rtl.inst) -> inst t i.kind) insts

let pp ppf t =
  Format.fprintf ppf "@[<v>%s(%a):@," t.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Reg.pp)
    t.params;
  List.iter
    (fun (i : Rtl.inst) ->
      match i.kind with
      | Rtl.Label _ -> Format.fprintf ppf "%a@," Rtl.pp_inst i
      | _ -> Format.fprintf ppf "  %a@," Rtl.pp_inst i)
    t.body;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
