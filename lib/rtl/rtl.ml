type label = string
type cmp = Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr
  | Cmp of cmp

type unop = Neg | Not | Sext of Width.t | Zext of Width.t
type operand = Reg of Reg.t | Imm of int64
type signedness = Signed | Unsigned
type mem = { base : Reg.t; disp : int64; width : Width.t; aligned : bool }

type kind =
  | Move of Reg.t * operand
  | Binop of binop * Reg.t * operand * operand
  | Unop of unop * Reg.t * operand
  | Load of { dst : Reg.t; src : mem; sign : signedness }
  | Store of { src : operand; dst : mem }
  | Extract of {
      dst : Reg.t;
      src : Reg.t;
      pos : operand;
      width : Width.t;
      sign : signedness;
    }
  | Insert of { dst : Reg.t; src : operand; pos : operand; width : Width.t }
  | Jump of label
  | Branch of { cmp : cmp; l : operand; r : operand; target : label }
  | Label of label
  | Call of { dst : Reg.t option; func : string; args : operand list }
  | Ret of operand option
  | Nop

type inst = { uid : int; kind : kind }

let operand_reg = function Reg r -> [ r ] | Imm _ -> []

let defs = function
  | Move (d, _) | Binop (_, d, _, _) | Unop (_, d, _) -> [ d ]
  | Load { dst; _ } -> [ dst ]
  | Extract { dst; _ } -> [ dst ]
  | Insert { dst; _ } -> [ dst ]
  | Call { dst = Some d; _ } -> [ d ]
  | Store _ | Jump _ | Branch _ | Label _ | Call { dst = None; _ }
  | Ret _ | Nop ->
    []

let dedup regs =
  List.fold_left
    (fun acc r -> if List.exists (Reg.equal r) acc then acc else r :: acc)
    [] regs
  |> List.rev

let uses = function
  | Move (_, s) -> operand_reg s
  | Binop (_, _, a, b) -> dedup (operand_reg a @ operand_reg b)
  | Unop (_, _, a) -> operand_reg a
  | Load { src; _ } -> [ src.base ]
  | Store { src; dst } -> dedup (operand_reg src @ [ dst.base ])
  | Extract { src; pos; _ } -> dedup (src :: operand_reg pos)
  | Insert { dst; src; pos; _ } ->
    dedup ((dst :: operand_reg src) @ operand_reg pos)
  | Jump _ | Label _ | Nop -> []
  | Branch { l; r; _ } -> dedup (operand_reg l @ operand_reg r)
  | Call { args; _ } -> dedup (List.concat_map operand_reg args)
  | Ret (Some op) -> operand_reg op
  | Ret None -> []

let is_load = function Load _ -> true | _ -> false
let is_store = function Store _ -> true | _ -> false
let is_memory k = is_load k || is_store k

let mem_of = function
  | Load { src; _ } -> Some src
  | Store { dst; _ } -> Some dst
  | _ -> None

let branch_targets = function
  | Jump l -> [ l ]
  | Branch { target; _ } -> [ target ]
  | _ -> []

let is_terminator = function Jump _ | Branch _ | Ret _ -> true | _ -> false

let has_side_effect = function
  | Store _ | Call _ | Ret _ | Jump _ | Branch _ | Label _ -> true
  | Move _ | Binop _ | Unop _ | Load _ | Extract _ | Insert _ | Nop -> false

let map_operand f = function Reg r -> Reg (f r) | Imm _ as i -> i

let map_uses f = function
  | Move (d, s) -> Move (d, map_operand f s)
  | Binop (op, d, a, b) -> Binop (op, d, map_operand f a, map_operand f b)
  | Unop (op, d, a) -> Unop (op, d, map_operand f a)
  | Load { dst; src; sign } ->
    Load { dst; src = { src with base = f src.base }; sign }
  | Store { src; dst } ->
    Store { src = map_operand f src; dst = { dst with base = f dst.base } }
  | Extract e -> Extract { e with src = f e.src; pos = map_operand f e.pos }
  | Insert i ->
    Insert
      {
        i with
        dst = f i.dst;
        src = map_operand f i.src;
        pos = map_operand f i.pos;
      }
  | Branch b -> Branch { b with l = map_operand f b.l; r = map_operand f b.r }
  | Call c -> Call { c with args = List.map (map_operand f) c.args }
  | Ret (Some op) -> Ret (Some (map_operand f op))
  | (Jump _ | Label _ | Ret None | Nop) as k -> k

let map_defs f = function
  | Move (d, s) -> Move (f d, s)
  | Binop (op, d, a, b) -> Binop (op, f d, a, b)
  | Unop (op, d, a) -> Unop (op, f d, a)
  | Load l -> Load { l with dst = f l.dst }
  | Extract e -> Extract { e with dst = f e.dst }
  | Insert i -> Insert { i with dst = f i.dst }
  | Call { dst = Some d; func; args } -> Call { dst = Some (f d); func; args }
  | ( Store _ | Jump _ | Branch _ | Label _ | Call { dst = None; _ }
    | Ret _ | Nop ) as k ->
    k

let map_regs f k =
  match k with
  | Insert i ->
    (* [dst] is both read and written: composing [map_uses] with
       [map_defs] would apply [f] to it twice, which breaks non-idempotent
       renamings (register allocation). *)
    Insert
      {
        i with
        dst = f i.dst;
        src = map_operand f i.src;
        pos = map_operand f i.pos;
      }
  | k -> map_defs f (map_uses f k)

let map_labels f = function
  | Jump l -> Jump (f l)
  | Branch b -> Branch { b with target = f b.target }
  | Label l -> Label (f l)
  | k -> k

exception Division_by_zero

let eval_cmp c a b =
  match c with
  | Eq -> Int64.equal a b
  | Ne -> not (Int64.equal a b)
  | Lt -> Int64.compare a b < 0
  | Le -> Int64.compare a b <= 0
  | Gt -> Int64.compare a b > 0
  | Ge -> Int64.compare a b >= 0
  | Ltu -> Int64.unsigned_compare a b < 0
  | Leu -> Int64.unsigned_compare a b <= 0
  | Gtu -> Int64.unsigned_compare a b > 0
  | Geu -> Int64.unsigned_compare a b >= 0

let eval_binop op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div -> if Int64.equal b 0L then raise Division_by_zero else Int64.div a b
  | Rem -> if Int64.equal b 0L then raise Division_by_zero else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Lshr -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))
  | Ashr -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
  | Cmp c -> if eval_cmp c a b then 1L else 0L

let eval_unop op a =
  match op with
  | Neg -> Int64.neg a
  | Not -> Int64.lognot a
  | Sext w -> Width.sign_extend w a
  | Zext w -> Width.zero_extend w a

let extract_bytes v ~pos ~width ~sign =
  let pos = ((pos mod 8) + 8) mod 8 in
  let shifted = Int64.shift_right_logical v (8 * pos) in
  match sign with
  | Signed -> Width.sign_extend width shifted
  | Unsigned -> Width.zero_extend width shifted

let insert_bytes v ~src ~pos ~width =
  let pos = ((pos mod 8) + 8) mod 8 in
  let field_mask = Int64.shift_left (Width.mask width) (8 * pos) in
  let field =
    Int64.shift_left (Width.truncate width src) (8 * pos)
  in
  Int64.logor (Int64.logand v (Int64.lognot field_mask)) field

(* Printing: mimic the paper's style, e.g. r[1] = B[r[16]+2]{h,s}. *)

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm i -> Format.fprintf ppf "%Ld" i

let pp_mem ppf { base; disp; width; aligned } =
  Format.fprintf ppf "%s[%a%t]%s"
    (String.uppercase_ascii (Width.to_string width))
    Reg.pp base
    (fun ppf -> if not (Int64.equal disp 0L) then Format.fprintf ppf "%+Ld" disp)
    (if aligned then "" else "u")

let cmp_to_string = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Ltu -> "<u"
  | Leu -> "<=u"
  | Gtu -> ">u"
  | Geu -> ">=u"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Lshr -> ">>u"
  | Ashr -> ">>"
  | Cmp c -> cmp_to_string c

let sign_suffix = function Signed -> "s" | Unsigned -> "u"

let pp_kind ppf = function
  | Move (d, s) -> Format.fprintf ppf "%a = %a" Reg.pp d pp_operand s
  | Binop (op, d, a, b) ->
    Format.fprintf ppf "%a = %a %s %a" Reg.pp d pp_operand a
      (binop_to_string op) pp_operand b
  | Unop (Neg, d, a) -> Format.fprintf ppf "%a = -%a" Reg.pp d pp_operand a
  | Unop (Not, d, a) -> Format.fprintf ppf "%a = ~%a" Reg.pp d pp_operand a
  | Unop (Sext w, d, a) ->
    Format.fprintf ppf "%a = sext.%a %a" Reg.pp d Width.pp w pp_operand a
  | Unop (Zext w, d, a) ->
    Format.fprintf ppf "%a = zext.%a %a" Reg.pp d Width.pp w pp_operand a
  | Load { dst; src; sign } ->
    Format.fprintf ppf "%a = %a{%s}" Reg.pp dst pp_mem src (sign_suffix sign)
  | Store { src; dst } ->
    Format.fprintf ppf "%a = %a" pp_mem dst pp_operand src
  | Extract { dst; src; pos; width; sign } ->
    Format.fprintf ppf "%a = EXT%s%s[%a,%a]" Reg.pp dst
      (String.uppercase_ascii (Width.to_string width))
      (sign_suffix sign) Reg.pp src pp_operand pos
  | Insert { dst; src; pos; width } ->
    Format.fprintf ppf "%a = INS%s[%a,%a,%a]" Reg.pp dst
      (String.uppercase_ascii (Width.to_string width))
      Reg.pp dst pp_operand src pp_operand pos
  | Jump l -> Format.fprintf ppf "PC = %s" l
  | Branch { cmp; l; r; target } ->
    Format.fprintf ppf "PC = %a %s %a -> %s" pp_operand l (cmp_to_string cmp)
      pp_operand r target
  | Label l -> Format.fprintf ppf "%s:" l
  | Call { dst; func; args } ->
    let pp_args ppf args =
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        pp_operand ppf args
    in
    (match dst with
    | Some d -> Format.fprintf ppf "%a = %s(%a)" Reg.pp d func pp_args args
    | None -> Format.fprintf ppf "%s(%a)" func pp_args args)
  | Ret (Some op) -> Format.fprintf ppf "ret %a" pp_operand op
  | Ret None -> Format.fprintf ppf "ret"
  | Nop -> Format.fprintf ppf "nop"

let pp_inst ppf i = pp_kind ppf i.kind
let to_string k = Format.asprintf "%a" pp_kind k
