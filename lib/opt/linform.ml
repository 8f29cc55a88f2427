open Mac_rtl

type sym = Entry of Reg.t | Opaque of int

let sym_equal a b =
  match (a, b) with
  | Entry r1, Entry r2 -> Reg.equal r1 r2
  | Opaque i1, Opaque i2 -> i1 = i2
  | Entry _, Opaque _ | Opaque _, Entry _ -> false

let sym_compare a b =
  match (a, b) with
  | Entry r1, Entry r2 -> Reg.compare r1 r2
  | Opaque i1, Opaque i2 -> Stdlib.compare i1 i2
  | Entry _, Opaque _ -> -1
  | Opaque _, Entry _ -> 1

let pp_sym ppf = function
  | Entry r -> Format.fprintf ppf "%a@@entry" Reg.pp r
  | Opaque i -> Format.fprintf ppf "opaque%d" i

type t = { const : int64; terms : (sym * int64) list }

let normalize terms =
  List.filter (fun (_, c) -> not (Int64.equal c 0L)) terms
  |> List.sort (fun (s1, _) (s2, _) -> sym_compare s1 s2)

let const c = { const = c; terms = [] }
let entry r = { const = 0L; terms = [ (Entry r, 1L) ] }

let merge_terms f t1 t2 =
  let rec go = function
    | [], rest -> List.map (fun (s, c) -> (s, f 0L c)) rest
    | rest, [] -> List.map (fun (s, c) -> (s, f c 0L)) rest
    | ((s1, c1) :: r1 as l1), ((s2, c2) :: r2 as l2) ->
      let cmp = sym_compare s1 s2 in
      if cmp = 0 then (s1, f c1 c2) :: go (r1, r2)
      else if cmp < 0 then (s1, f c1 0L) :: go (r1, l2)
      else (s2, f 0L c2) :: go (l1, r2)
  in
  normalize (go (t1, t2))

let add a b =
  { const = Int64.add a.const b.const; terms = merge_terms Int64.add a.terms b.terms }

let sub a b =
  { const = Int64.sub a.const b.const; terms = merge_terms Int64.sub a.terms b.terms }

let neg a =
  { const = Int64.neg a.const;
    terms = List.map (fun (s, c) -> (s, Int64.neg c)) a.terms }

let mul_const a k =
  {
    const = Int64.mul a.const k;
    terms = normalize (List.map (fun (s, c) -> (s, Int64.mul c k)) a.terms);
  }

let shl_const a n = mul_const a (Int64.shift_left 1L n)

let same_terms a b =
  List.length a.terms = List.length b.terms
  && List.for_all2
       (fun (s1, c1) (s2, c2) -> sym_equal s1 s2 && Int64.equal c1 c2)
       a.terms b.terms

let equal a b = Int64.equal a.const b.const && same_terms a b
let as_const a = if a.terms = [] then Some a.const else None

let pp ppf a =
  Format.fprintf ppf "%Ld" a.const;
  List.iter
    (fun (s, c) ->
      if Int64.equal c 1L then Format.fprintf ppf " + %a" pp_sym s
      else Format.fprintf ppf " + %Ld*%a" c pp_sym s)
    a.terms

(* Symbolic execution environment. *)

type env = { values : t Reg.Map.t; mutable next_opaque : int }

let initial_env () = { values = Reg.Map.empty; next_opaque = 0 }

let eval_reg env r =
  match Reg.Map.find_opt r env.values with
  | Some v -> v
  | None -> entry r

let eval_operand env = function
  | Rtl.Reg r -> eval_reg env r
  | Rtl.Imm i -> const i

let fresh_opaque env =
  let i = env.next_opaque in
  env.next_opaque <- i + 1;
  { const = 0L; terms = [ (Opaque i, 1L) ] }

let assign env r v = { env with values = Reg.Map.add r v env.values }
let clobber env r = assign env r (fresh_opaque env)

let step env (k : Rtl.kind) =
  match k with
  | Rtl.Move (d, s) -> assign env d (eval_operand env s)
  | Rtl.Binop (Rtl.Add, d, a, b) ->
    assign env d (add (eval_operand env a) (eval_operand env b))
  | Rtl.Binop (Rtl.Sub, d, a, b) ->
    assign env d (sub (eval_operand env a) (eval_operand env b))
  | Rtl.Binop (Rtl.Mul, d, a, b) -> (
    let va = eval_operand env a and vb = eval_operand env b in
    match (as_const va, as_const vb) with
    | _, Some k -> assign env d (mul_const va k)
    | Some k, _ -> assign env d (mul_const vb k)
    | None, None -> clobber env d)
  | Rtl.Binop (Rtl.Shl, d, a, b) -> (
    let va = eval_operand env a and vb = eval_operand env b in
    match as_const vb with
    | Some k when Int64.compare k 0L >= 0 && Int64.compare k 63L <= 0 ->
      assign env d (shl_const va (Int64.to_int k))
    | _ -> clobber env d)
  | Rtl.Unop (Rtl.Neg, d, a) -> assign env d (neg (eval_operand env a))
  | k -> List.fold_left clobber env (Rtl.defs k)

let address_of env (m : Rtl.mem) = add (eval_reg env m.base) (const m.disp)

(* --- code generation --- *)

let log2_exact = Width.log2_exact

(* t = t +/- reg * |coeff|, using a shift when |coeff| is a power of two. *)
let add_scaled f t reg coeff =
  if Int64.equal coeff 1L then
    [ Rtl.Binop (Rtl.Add, t, Rtl.Reg t, Rtl.Reg reg) ]
  else if Int64.equal coeff (-1L) then
    [ Rtl.Binop (Rtl.Sub, t, Rtl.Reg t, Rtl.Reg reg) ]
  else
    let tmp = Func.fresh_reg f in
    let scale =
      match log2_exact (Int64.abs coeff) with
      | Some sh ->
        [ Rtl.Binop (Rtl.Shl, tmp, Rtl.Reg reg, Rtl.Imm (Int64.of_int sh)) ]
      | None ->
        [ Rtl.Binop (Rtl.Mul, tmp, Rtl.Reg reg, Rtl.Imm (Int64.abs coeff)) ]
    in
    let combine =
      if Int64.compare coeff 0L > 0 then
        Rtl.Binop (Rtl.Add, t, Rtl.Reg t, Rtl.Reg tmp)
      else Rtl.Binop (Rtl.Sub, t, Rtl.Reg t, Rtl.Reg tmp)
    in
    scale @ [ combine ]

let materialize f (form : t) =
  let all_entry =
    List.for_all
      (fun (s, _) -> match s with Entry _ -> true | Opaque _ -> false)
      form.terms
  in
  if not all_entry then None
  else
    match form.terms with
    | [] -> Some ([], Rtl.Imm form.const)
    | [ (Entry r, 1L) ] when Int64.equal form.const 0L -> Some ([], Rtl.Reg r)
    | terms ->
      let t = Func.fresh_reg f in
      let init = Rtl.Move (t, Rtl.Imm form.const) in
      let adds =
        List.concat_map
          (fun (s, coeff) ->
            match s with
            | Entry r -> add_scaled f t r coeff
            | Opaque _ -> assert false)
          terms
      in
      Some (init :: adds, Rtl.Reg t)
