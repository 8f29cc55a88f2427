(* Congruence analysis over RTL: value ≡ stride·σ(sym) + off (mod 2^k).

   σ(sym) is the value [sym] held at function entry, so claims compose
   across the whole function without an SSA construction: a register that
   is never redefined simply keeps its entry value, which is why the state
   map can default missing registers to [entry r].

   All arithmetic is on int64, so k = 64 claims are exact equalities (the
   2^64 wrap-around of the claim coincides with the machine's). Joins only
   ever lower k or drop the symbol, giving a finite-height lattice. *)

open Mac_rtl
open Rtl

type value =
  | Top
  | Lin of { sym : Reg.t option; stride : int64; off : int64; k : int }

let top = Top

(* Trailing-zero count; by convention v2 0 = 64 (0 is divisible by any
   power of two we can name). *)
let v2 x =
  if Int64.equal x 0L then 64
  else begin
    let n = ref 0 and x = ref x in
    while Int64.equal (Int64.logand !x 1L) 0L do
      incr n;
      x := Int64.shift_right_logical !x 1
    done;
    !n
  end

let mask_of k =
  if k >= 64 then -1L else Int64.sub (Int64.shift_left 1L k) 1L

let make ~sym ~stride ~off ~k =
  if k <= 0 then Top
  else
    let k = min k 64 in
    let m = mask_of k in
    let stride = Int64.logand stride m and off = Int64.logand off m in
    let sym = if Int64.equal stride 0L then None else sym in
    let stride = if sym = None then 0L else stride in
    Lin { sym; stride; off; k }

let const c = make ~sym:None ~stride:0L ~off:c ~k:64
let entry r = make ~sym:(Some r) ~stride:1L ~off:0L ~k:64

let value_equal a b =
  match (a, b) with
  | Top, Top -> true
  | Lin a, Lin b ->
    a.k = b.k
    && Int64.equal a.stride b.stride
    && Int64.equal a.off b.off
    && (match (a.sym, b.sym) with
       | None, None -> true
       | Some x, Some y -> Reg.equal x y
       | _ -> false)
  | _ -> false

(* The number of low bits the claim determines outright (no alignment
   promises about σ): k when there is no symbolic part, otherwise the
   symbolic term only vanishes mod 2^(v2 stride). *)
let known_low = function
  | Top -> (0, 0L)
  | Lin { sym = None; off; k; _ } -> (k, off)
  | Lin { stride; off; k; _ } -> (min k (v2 stride), off)

let residue ?(sym_align = fun _ -> 0) v ~bits =
  if bits <= 0 then Some 0L
  else
    match v with
    | Top -> None
    | Lin { sym; stride; off; k } ->
      let t =
        match sym with
        | None -> k
        | Some s -> min k (min 64 (v2 stride + sym_align s))
      in
      if t >= bits then Some (Int64.logand off (mask_of bits)) else None

let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Lin x, Lin y ->
    let same_sym =
      match (x.sym, y.sym) with
      | None, None -> true
      | Some r, Some s -> Reg.equal r s
      | _ -> false
    in
    if same_sym then
      let k =
        min (min x.k y.k)
          (min (v2 (Int64.sub x.stride y.stride)) (v2 (Int64.sub x.off y.off)))
      in
      make ~sym:x.sym ~stride:x.stride ~off:x.off ~k
    else
      (* Different symbols cannot both survive: weaken each side to its
         symbol-free residue, then join those. *)
      let ta, oa = known_low a and tb, ob = known_low b in
      let k = min (min ta tb) (v2 (Int64.sub oa ob)) in
      make ~sym:None ~stride:0L ~off:oa ~k

let implies ~actual ~claim =
  match (claim, actual) with
  | Top, _ -> true
  | _, Top -> false
  | Lin c, Lin a ->
    if c.k > a.k then false
    else
      let m = mask_of c.k in
      let congr u v = Int64.equal (Int64.logand u m) (Int64.logand v m) in
      (match (a.sym, c.sym) with
      | None, None -> congr a.stride c.stride && congr a.off c.off
      | Some r, Some s when Reg.equal r s ->
        congr a.stride c.stride && congr a.off c.off
      | Some _, None ->
        (* the actual symbol must vanish mod 2^(c.k) *)
        congr a.stride 0L && congr a.off c.off
      | None, Some _ -> congr c.stride 0L && congr a.off c.off
      | Some _, Some _ ->
        (* distinct symbols: both symbolic parts must vanish *)
        congr a.stride 0L && congr c.stride 0L && congr a.off c.off)

let exact = function
  | Lin { sym = None; off; k = 64; _ } -> Some off
  | _ -> None

let exact_affine = function
  | Lin { sym = Some r; stride = 1L; off; k = 64 } -> Some (r, off)
  | _ -> None

let add a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Lin x, Lin y ->
    let compatible =
      match (x.sym, y.sym) with
      | None, _ | _, None -> true
      | Some r, Some s -> Reg.equal r s
    in
    if compatible then
      let sym = if x.sym = None then y.sym else x.sym in
      make ~sym
        ~stride:(Int64.add x.stride y.stride)
        ~off:(Int64.add x.off y.off)
        ~k:(min x.k y.k)
    else
      (* two live symbols: fall back to the symbol-free residues *)
      let ta, oa = known_low a and tb, ob = known_low b in
      make ~sym:None ~stride:0L ~off:(Int64.add oa ob) ~k:(min ta tb)

let neg = function
  | Top -> Top
  | Lin { sym; stride; off; k } ->
    make ~sym ~stride:(Int64.neg stride) ~off:(Int64.neg off) ~k

let sub a b = add a (neg b)

let mul_const v c =
  if Int64.equal c 0L then const 0L
  else
    match v with
    | Top -> make ~sym:None ~stride:0L ~off:0L ~k:(v2 c)
    | Lin { sym; stride; off; k } ->
      make ~sym ~stride:(Int64.mul stride c) ~off:(Int64.mul off c)
        ~k:(min 64 (k + v2 c))

(* Product of two non-constant values: all we can keep is divisibility.
   If a ≡ 0 mod 2^ta and b ≡ 0 mod 2^tb then ab ≡ 0 mod 2^(ta+tb); a
   nonzero low residue caps the guaranteed trailing zeros at its own v2. *)
let mul a b =
  match (exact a, exact b) with
  | Some ca, _ -> mul_const b ca
  | _, Some cb -> mul_const a cb
  | None, None ->
    let tz v =
      let t, o = known_low v in
      min t (v2 o)
    in
    make ~sym:None ~stride:0L ~off:0L ~k:(min 64 (tz a + tz b))

let pp_value ppf = function
  | Top -> Format.fprintf ppf "⊤"
  | Lin { sym; stride; off; k } ->
    (match sym with
    | None -> Format.fprintf ppf "%Ld" off
    | Some r ->
      if Int64.equal stride 1L then Format.fprintf ppf "σ%a" Reg.pp r
      else Format.fprintf ppf "%Ld·σ%a" stride Reg.pp r;
      if not (Int64.equal off 0L) then Format.fprintf ppf "+%Ld" off);
    if k < 64 then Format.fprintf ppf " (mod 2^%d)" k

(* ------------------------------------------------------------------ *)
(* States                                                              *)

type state = { map : value Reg.Map.t; default : Reg.t -> value }

let value_of st r =
  match Reg.Map.find_opt r st.map with
  | Some v -> v
  | None -> st.default r

let state_set st r v =
  if value_equal v (st.default r) then
    { st with map = Reg.Map.remove r st.map }
  else { st with map = Reg.Map.add r v st.map }

let entry_state ?(consts = []) () =
  let default r =
    match List.find_opt (fun (s, _) -> Reg.equal s r) consts with
    | Some (_, c) -> const c
    | None -> entry r
  in
  { map = Reg.Map.empty; default }

let state_equal a b = a.map == b.map || Reg.Map.equal value_equal a.map b.map

(* Both states come from one solve, so they share [default]. Joins are
   idempotent and a bound value never equals its default, so a state or
   a binding joined with itself is itself. *)
let state_join a b =
  if a.map == b.map then a
  else
    let map =
      Reg.Map.merge
        (fun r va vb ->
          match (va, vb) with
          | Some x, Some y when x == y -> va
          | _ ->
            let v =
              join
                (match va with Some v -> v | None -> a.default r)
                (match vb with Some v -> v | None -> b.default r)
            in
            if value_equal v (a.default r) then None else Some v)
        a.map b.map
    in
    { a with map }

(* Bitwise ops act on determined low bits only; And against an exact
   constant that fits inside the determined window clears everything
   above it and so yields an exact result — the alignment-mask shape. *)
let bitop op a b =
  let ta, oa = known_low a and tb, ob = known_low b in
  make ~sym:None ~stride:0L ~off:(op oa ob) ~k:(min ta tb)

let band a b =
  let ta, oa = known_low a and tb, ob = known_low b in
  let exact_masked c t o =
    if Int64.equal (Int64.logand c (mask_of t)) c && c >= 0L then
      Some (const (Int64.logand o c))
    else None
  in
  let upgraded =
    match (exact a, exact b) with
    | Some ca, _ -> exact_masked ca tb ob
    | _, Some cb -> exact_masked cb ta oa
    | None, None -> None
  in
  match upgraded with
  | Some v -> v
  | None -> bitop Int64.logand a b

let transfer_binop op a b =
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Shl -> (
    match exact b with
    | Some n when n >= 0L && n < 64L ->
      mul_const a (Int64.shift_left 1L (Int64.to_int n))
    | _ -> Top)
  | And -> band a b
  | Or -> bitop Int64.logor a b
  | Xor -> bitop Int64.logxor a b
  | Div | Rem | Lshr | Ashr | Cmp _ -> (
    match (exact a, exact b) with
    | Some ca, Some cb -> (
      try const (eval_binop op ca cb) with Division_by_zero -> Top)
    | _ -> Top)

let transfer_unop op v =
  match op with
  | Neg -> neg v
  | Not -> sub (const (-1L)) v
  | Sext w | Zext w -> (
    match exact v with
    | Some c -> const (eval_unop op c)
    | None -> (
      (* only the low bits of the input survive unchanged *)
      match v with
      | Top -> Top
      | Lin { sym; stride; off; k } ->
        make ~sym ~stride ~off ~k:(min k (Width.bits w))))

(* The register [kind] defines and its new value, reading each register
   operand through [get]; [None] for an instruction that defines none. *)
let transfer get kind =
  let operand = function Imm c -> const c | Reg r -> get r in
  match kind with
  | Move (d, op) -> Some (d, operand op)
  | Binop (op, d, l, r) -> Some (d, transfer_binop op (operand l) (operand r))
  | Unop (op, d, o) -> Some (d, transfer_unop op (operand o))
  | Load { dst; _ } | Extract { dst; _ } | Insert { dst; _ }
  | Call { dst = Some dst; _ } ->
    Some (dst, Top)
  | Call { dst = None; _ }
  | Store _ | Jump _ | Branch _ | Label _ | Ret _ | Nop ->
    None

let step st kind =
  match transfer (value_of st) kind with
  | Some (d, v) -> state_set st d v
  | None -> st

(* ------------------------------------------------------------------ *)
(* The block-level fixpoint                                            *)

type t = { ins : state array; outs : state array }

let solve ?consts cfg =
  let open Mac_cfg in
  let n = Array.length cfg.Cfg.blocks in
  let initial = entry_state ?consts () in
  let ins = Array.make n initial and outs = Array.make n initial in
  (* a block not yet visited contributes nothing to a join (bottom) —
     joining its placeholder state instead would fold the entry-value
     defaults into every loop header via the back edge and poison the
     induction registers to top *)
  let reached = Array.make n false in
  let transfer_block b st =
    List.fold_left
      (fun st (i : inst) -> step st i.kind)
      st cfg.Cfg.blocks.(b).Cfg.insts
  in
  let order = Cfg.rpo cfg in
  let entry_b = Cfg.entry cfg in
  (* Sweeps in reverse postorder until nothing changes, re-transferring
     a block only when a predecessor was first reached or its out-state
     changed since the block's last transfer: a skipped block would
     recompute the state it already holds, so every sweep ends in the
     state a full round-robin sweep would. *)
  let dirty = Array.make n true and ndirty = ref n in
  let rounds = ref 0 in
  while !ndirty > 0 && !rounds < 1000 do
    incr rounds;
    Array.iter
      (fun b ->
        if dirty.(b) then begin
          dirty.(b) <- false;
          decr ndirty;
          let in_st =
            let joined =
              List.fold_left
                (fun acc p ->
                  if not reached.(p) then acc
                  else
                    match acc with
                    | None -> Some outs.(p)
                    | Some st -> Some (state_join st outs.(p)))
                None cfg.Cfg.pred.(b)
            in
            match joined with
            | None -> initial
            | Some st -> if b = entry_b then state_join initial st else st
          in
          let out_st = transfer_block b in_st in
          ins.(b) <- in_st;
          if (not reached.(b)) || not (state_equal out_st outs.(b)) then begin
            reached.(b) <- true;
            outs.(b) <- out_st;
            List.iter
              (fun s ->
                if not dirty.(s) then begin
                  dirty.(s) <- true;
                  incr ndirty
                end)
              cfg.Cfg.succ.(b)
          end
        end)
      order
  done;
  { ins; outs }

let block_in t b = t.ins.(b)
let block_out t b = t.outs.(b)
