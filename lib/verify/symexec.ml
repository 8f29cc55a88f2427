open Mac_rtl

type sym = SEntry of Reg.t | SCall of int
type msym = MEntry | MCall of int

type term =
  | Sym of sym
  | Con of int64
  | Bin of Rtl.binop * term * term
  | Un of Rtl.unop * term
  | Ext of term * term * Width.t * Rtl.signedness
  | Ins of term * term * term * Width.t
  | Read of mem * term * Width.t * Rtl.signedness

and mem = MSym of msym | MWrite of mem * term * Width.t * term

(* --- hash-consing ---------------------------------------------------
   Terms are value graphs: a register used twice makes its term a child
   of two parents, and a store chain resolved through select-over-store
   feeds whole stored values back into later values. The tree a term
   denotes therefore grows exponentially in the block length even though
   the graph stays linear — and the old and new sides of a validation
   build their graphs independently, so physical sharing alone cannot
   make their comparison cheap. Every composite node is interned in a
   table owned by the validation's ctx (both sides share it): maximal
   sharing within and across the two executions, structural equality of
   interned nodes collapses to pointer equality, and every traversal
   (equality, ordering, sizing) runs on the graph, not the tree. *)

module TermTbl = Hashtbl.Make (struct
  type t = term

  let equal = ( == )

  (* [Hashtbl.hash] caps the number of nodes it visits, so hashing a
     physically huge graph is O(1); physically equal keys trivially agree *)
  let hash = Hashtbl.hash
end)

module MemTbl = Hashtbl.Make (struct
  type t = mem

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type interner = {
  mutable next_id : int;
  term_ids : int TermTbl.t;  (** interned node -> unique id *)
  mem_ids : int MemTbl.t;
  term_nodes : (int, term list ref) Hashtbl.t;  (** shallow hash buckets *)
  mem_nodes : (int, mem list ref) Hashtbl.t;
}

let interner () =
  {
    next_id = 0;
    term_ids = TermTbl.create 1024;
    mem_ids = MemTbl.create 256;
    term_nodes = Hashtbl.create 1024;
    mem_nodes = Hashtbl.create 256;
  }

let mix h x = (h * 0x01000193) lxor (x land max_int)

(* children are guaranteed interned when these run *)
let shallow_term_hash it = function
  | Sym s -> mix 1 (Hashtbl.hash s)
  | Con c -> mix 2 (Hashtbl.hash c)
  | Bin (o, a, b) ->
    mix
      (mix (mix 3 (Hashtbl.hash o)) (TermTbl.find it.term_ids a))
      (TermTbl.find it.term_ids b)
  | Un (o, a) ->
    mix (mix 4 (Hashtbl.hash o)) (TermTbl.find it.term_ids a)
  | Ext (s, p, w, g) ->
    mix
      (mix
         (mix (mix 5 (TermTbl.find it.term_ids s))
            (TermTbl.find it.term_ids p))
         (Hashtbl.hash w))
      (Hashtbl.hash g)
  | Ins (d, s, p, w) ->
    mix
      (mix
         (mix (mix 6 (TermTbl.find it.term_ids d))
            (TermTbl.find it.term_ids s))
         (TermTbl.find it.term_ids p))
      (Hashtbl.hash w)
  | Read (m, a, w, g) ->
    mix
      (mix
         (mix (mix 7 (MemTbl.find it.mem_ids m))
            (TermTbl.find it.term_ids a))
         (Hashtbl.hash w))
      (Hashtbl.hash g)

let shallow_mem_hash it = function
  | MSym s -> mix 8 (Hashtbl.hash s)
  | MWrite (m, a, w, v) ->
    mix
      (mix
         (mix (mix 9 (MemTbl.find it.mem_ids m))
            (TermTbl.find it.term_ids a))
         (Hashtbl.hash w))
      (TermTbl.find it.term_ids v)

let shallow_term_equal a b =
  match (a, b) with
  | Sym x, Sym y -> x = y
  | Con x, Con y -> Int64.equal x y
  | Bin (o1, a1, b1), Bin (o2, a2, b2) -> o1 = o2 && a1 == a2 && b1 == b2
  | Un (o1, a1), Un (o2, a2) -> o1 = o2 && a1 == a2
  | Ext (s1, p1, w1, g1), Ext (s2, p2, w2, g2) ->
    s1 == s2 && p1 == p2 && Width.equal w1 w2 && g1 = g2
  | Ins (d1, s1, p1, w1), Ins (d2, s2, p2, w2) ->
    d1 == d2 && s1 == s2 && p1 == p2 && Width.equal w1 w2
  | Read (m1, a1, w1, g1), Read (m2, a2, w2, g2) ->
    m1 == m2 && a1 == a2 && Width.equal w1 w2 && g1 = g2
  | _ -> false

let shallow_mem_equal a b =
  match (a, b) with
  | MSym x, MSym y -> x = y
  | MWrite (m1, a1, w1, v1), MWrite (m2, a2, w2, v2) ->
    m1 == m2 && a1 == a2 && v1 == v2 && Width.equal w1 w2
  | _ -> false

let bucket tbl h =
  match Hashtbl.find_opt tbl h with
  | Some b -> b
  | None ->
    let b = ref [] in
    Hashtbl.add tbl h b;
    b

(* Full hash-consing: structurally equal inputs map to one physical
   node, whatever mix of raw and interned parts they arrive with.
   Recursion stops at already-interned nodes, so interning a shallow
   wrapper around interned children is O(1). *)
let rec intern it t =
  if TermTbl.mem it.term_ids t then t
  else
    let t =
      match t with
      | Sym _ | Con _ -> t
      | Bin (o, a, b) ->
        let a' = intern it a and b' = intern it b in
        if a' == a && b' == b then t else Bin (o, a', b')
      | Un (o, a) ->
        let a' = intern it a in
        if a' == a then t else Un (o, a')
      | Ext (s, p, w, g) ->
        let s' = intern it s and p' = intern it p in
        if s' == s && p' == p then t else Ext (s', p', w, g)
      | Ins (d, s, p, w) ->
        let d' = intern it d and s' = intern it s and p' = intern it p in
        if d' == d && s' == s && p' == p then t else Ins (d', s', p', w)
      | Read (m, a, w, g) ->
        let m' = intern_mem it m and a' = intern it a in
        if m' == m && a' == a then t else Read (m', a', w, g)
    in
    let b = bucket it.term_nodes (shallow_term_hash it t) in
    match List.find_opt (shallow_term_equal t) !b with
    | Some u -> u
    | None ->
      TermTbl.add it.term_ids t it.next_id;
      it.next_id <- it.next_id + 1;
      b := t :: !b;
      t

and intern_mem it m =
  if MemTbl.mem it.mem_ids m then m
  else
    let m =
      match m with
      | MSym _ -> m
      | MWrite (n, a, w, v) ->
        let n' = intern_mem it n and a' = intern it a and v' = intern it v in
        if n' == n && a' == a && v' == v then m else MWrite (n', a', w, v')
    in
    let b = bucket it.mem_nodes (shallow_mem_hash it m) in
    match List.find_opt (shallow_mem_equal m) !b with
    | Some u -> u
    | None ->
      MemTbl.add it.mem_ids m it.next_id;
      it.next_id <- it.next_id + 1;
      b := m :: !b;
      m

(* Terms are shared DAGs (an env rebinds subterms without copying), so
   plain structural equality can revisit the same subterm exponentially
   often; the physical shortcut makes the common all-shared case O(1).
   Interned nodes compare in O(1) by construction; the structural
   fallback only ever descends into raw leaves. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Sym x, Sym y -> x = y
  | Con x, Con y -> Int64.equal x y
  | Bin (o1, a1, b1), Bin (o2, a2, b2) ->
    o1 = o2 && equal a1 a2 && equal b1 b2
  | Un (o1, a1), Un (o2, a2) -> o1 = o2 && equal a1 a2
  | Ext (s1, p1, w1, g1), Ext (s2, p2, w2, g2) ->
    Width.equal w1 w2 && g1 = g2 && equal s1 s2 && equal p1 p2
  | Ins (d1, s1, p1, w1), Ins (d2, s2, p2, w2) ->
    Width.equal w1 w2 && equal d1 d2 && equal s1 s2 && equal p1 p2
  | Read (m1, a1, w1, g1), Read (m2, a2, w2, g2) ->
    Width.equal w1 w2 && g1 = g2 && equal a1 a2 && equal_mem m1 m2
  | _ -> false

and equal_mem m1 m2 =
  m1 == m2
  ||
  match (m1, m2) with
  | MSym x, MSym y -> x = y
  | MWrite (n1, a1, w1, v1), MWrite (n2, a2, w2, v2) ->
    Width.equal w1 w2 && equal a1 a2 && equal v1 v2 && equal_mem n1 n2
  | _ -> false

(* A total order for canonicalization (commutative operands, adjacent
   disjoint stores). Any deterministic order works; this one is cheap. *)
let ctor_rank = function
  | Con _ -> 0
  | Sym _ -> 1
  | Un _ -> 2
  | Bin _ -> 3
  | Ext _ -> 4
  | Ins _ -> 5
  | Read _ -> 6

let rec compare_term a b =
  if a == b then 0
  else
    match (a, b) with
    | Con x, Con y -> Int64.compare x y
    | Sym x, Sym y -> Stdlib.compare x y
    | Un (o1, a1), Un (o2, a2) ->
      let c = Stdlib.compare o1 o2 in
      if c <> 0 then c else compare_term a1 a2
    | Bin (o1, a1, b1), Bin (o2, a2, b2) ->
      let c = Stdlib.compare o1 o2 in
      if c <> 0 then c
      else
        let c = compare_term a1 a2 in
        if c <> 0 then c else compare_term b1 b2
    | Ext (s1, p1, w1, g1), Ext (s2, p2, w2, g2) ->
      let c = Stdlib.compare (w1, g1) (w2, g2) in
      if c <> 0 then c
      else
        let c = compare_term s1 s2 in
        if c <> 0 then c else compare_term p1 p2
    | Ins (d1, s1, p1, w1), Ins (d2, s2, p2, w2) ->
      let c = Width.compare w1 w2 in
      if c <> 0 then c
      else
        let c = compare_term d1 d2 in
        if c <> 0 then c
        else
          let c = compare_term s1 s2 in
          if c <> 0 then c else compare_term p1 p2
    | Read (m1, a1, w1, g1), Read (m2, a2, w2, g2) ->
      let c = Stdlib.compare (w1, g1) (w2, g2) in
      if c <> 0 then c
      else
        let c = compare_term a1 a2 in
        if c <> 0 then c else compare_mem m1 m2
    | x, y -> Stdlib.compare (ctor_rank x) (ctor_rank y)

and compare_mem m1 m2 =
  if m1 == m2 then 0
  else
    match (m1, m2) with
    | MSym x, MSym y -> Stdlib.compare x y
    | MSym _, MWrite _ -> -1
    | MWrite _, MSym _ -> 1
    | MWrite (n1, a1, w1, v1), MWrite (n2, a2, w2, v2) ->
      let c = compare_term a1 a2 in
      if c <> 0 then c
      else
        let c = Width.compare w1 w2 in
        if c <> 0 then c
        else
          let c = compare_term v1 v2 in
          if c <> 0 then c else compare_mem n1 n2

type ctx = {
  word : Width.t;
  cross_disjoint : term -> int -> term -> int -> bool;
  it : interner;
}

let ctx ?interner:it ?(cross_disjoint = fun _ _ _ _ -> false) word =
  let it = match it with Some it -> it | None -> interner () in
  { word; cross_disjoint; it }

(* --- address arithmetic --------------------------------------------- *)

let split_addr = function
  | Bin (Rtl.Add, base, Con k) -> (base, k)
  | t -> (t, 0L)

(* Byte ranges [a, a+wa) and [b, b+wb): provably disjoint when the
   addresses share a base term and the constant intervals separate
   (64-bit wrap-around cannot rejoin them for the small widths involved),
   else when the caller's oracle says so. *)
let disjoint ctx a wa b wb =
  let ba, ka = split_addr a and bb, kb = split_addr b in
  if equal ba bb then
    let ka = Int64.to_int (Int64.sub ka kb) in
    (* offsets now relative: [ka, ka+wa) vs [0, wb) *)
    ka >= wb || ka + wa <= 0
  else ctx.cross_disjoint a wa b wb

(* ranges: same base and [ka, ka+wa) covers / is covered by [kb, kb+wb) *)
let covers a wa b wb =
  let ba, ka = split_addr a and bb, kb = split_addr b in
  equal ba bb
  && Int64.compare ka kb <= 0
  && Int64.to_int (Int64.sub kb ka) + wb <= wa

(* --- smart constructors --------------------------------------------- *)

let negate_cmp = function
  | Rtl.Eq -> Rtl.Ne
  | Rtl.Ne -> Rtl.Eq
  | Rtl.Lt -> Rtl.Ge
  | Rtl.Ge -> Rtl.Lt
  | Rtl.Le -> Rtl.Gt
  | Rtl.Gt -> Rtl.Le
  | Rtl.Ltu -> Rtl.Geu
  | Rtl.Geu -> Rtl.Ltu
  | Rtl.Leu -> Rtl.Gtu
  | Rtl.Gtu -> Rtl.Leu

let is_commutative = function
  | Rtl.Add | Rtl.Mul | Rtl.And | Rtl.Or | Rtl.Xor | Rtl.Cmp Rtl.Eq
  | Rtl.Cmp Rtl.Ne ->
    true
  | _ -> false

(* a comparison on the same operands: Eq/Le/Ge (and unsigned) hold *)
let cmp_refl = function
  | Rtl.Eq | Rtl.Le | Rtl.Ge | Rtl.Leu | Rtl.Geu -> true
  | Rtl.Ne | Rtl.Lt | Rtl.Gt | Rtl.Ltu | Rtl.Gtu -> false

let rec bin ctx op a b =
  match (op, a, b) with
  | _, Con x, Con y -> (
    (* Div/Rem by zero traps at run time; leave the term stuck. *)
    match Rtl.eval_binop op x y with
    | v -> Con v
    | exception Rtl.Division_by_zero -> Bin (op, a, b))
  (* commutative: constant to the right, otherwise canonical order *)
  | _, Con _, _ when is_commutative op -> bin ctx op b a
  | _, _, _ when is_commutative op && compare_term a b > 0 && not (is_con b)
    ->
    bin ctx op b a
  | Rtl.Sub, _, Con c when c <> Int64.min_int ->
    bin ctx Rtl.Add a (Con (Int64.neg c))
  | Rtl.Sub, _, _ when equal a b -> Con 0L
  | Rtl.Add, _, Con 0L -> a
  (* reassociate additions so every address is [base + Con k] *)
  | Rtl.Add, Bin (Rtl.Add, x, Con k1), Con k2 ->
    bin ctx Rtl.Add x (Con (Int64.add k1 k2))
  | Rtl.Add, Bin (Rtl.Add, x, Con k), y | Rtl.Add, y, Bin (Rtl.Add, x, Con k)
    ->
    bin ctx Rtl.Add (bin ctx Rtl.Add x y) (Con k)
  | Rtl.Mul, _, Con 1L -> a
  | Rtl.Mul, _, Con 0L -> Con 0L
  | Rtl.Mul, _, Con c when Width.log2_exact c <> None ->
    (* the simplifier's strength rewrite; keep both sides convergent *)
    let n = Option.get (Width.log2_exact c) in
    bin ctx Rtl.Shl a (Con (Int64.of_int n))
  | Rtl.And, _, Con -1L -> a
  | Rtl.And, _, Con 0L -> Con 0L
  | Rtl.And, _, _ when equal a b -> a
  | Rtl.Or, _, Con 0L -> a
  | Rtl.Or, _, _ when equal a b -> a
  | Rtl.Xor, _, Con 0L -> a
  | Rtl.Xor, _, _ when equal a b -> Con 0L
  | (Rtl.Shl | Rtl.Lshr | Rtl.Ashr), _, Con 0L -> a
  (* the legalizer's split-load: lo | (hi << 32) over adjacent words *)
  | Rtl.Or, Read (m1, a1, Width.W32, Rtl.Unsigned),
      Bin (Rtl.Shl, Read (m2, a2, Width.W32, _), Con 32L)
  | Rtl.Or, Bin (Rtl.Shl, Read (m2, a2, Width.W32, _), Con 32L),
      Read (m1, a1, Width.W32, Rtl.Unsigned)
    when equal_mem m1 m2 && equal a2 (bin ctx Rtl.Add a1 (Con 4L)) ->
    Read (m1, a1, Width.W64, Rtl.Unsigned)
  | Rtl.Cmp c, _, _ when equal a b -> Con (if cmp_refl c then 1L else 0L)
  (* canonical comparison set: {Eq, Ne, Lt, Le, Ltu, Leu} via mirroring *)
  | Rtl.Cmp Rtl.Gt, _, _ -> bin ctx (Rtl.Cmp Rtl.Lt) b a
  | Rtl.Cmp Rtl.Ge, _, _ -> bin ctx (Rtl.Cmp Rtl.Le) b a
  | Rtl.Cmp Rtl.Gtu, _, _ -> bin ctx (Rtl.Cmp Rtl.Ltu) b a
  | Rtl.Cmp Rtl.Geu, _, _ -> bin ctx (Rtl.Cmp Rtl.Leu) b a
  | _ -> Bin (op, a, b)

and is_con = function Con _ -> true | _ -> false

let negate_cond ctx = function
  | Bin (Rtl.Cmp c, l, r) ->
    Some (intern ctx.it (Bin (Rtl.Cmp (negate_cmp c), l, r)))
  | Con 0L -> Some (Con 1L)
  | Con _ -> Some (Con 0L)
  | _ -> None

(* does the term's value provably fit (already extended) in width [w]? *)
let fits w sign t =
  match (t, sign) with
  | Read (_, _, w', Rtl.Unsigned), Rtl.Unsigned
  | Ext (_, _, w', Rtl.Unsigned), Rtl.Unsigned ->
    Width.compare w' w <= 0
  | Read (_, _, w', Rtl.Signed), Rtl.Signed
  | Ext (_, _, w', Rtl.Signed), Rtl.Signed ->
    Width.compare w' w <= 0
  | Bin (Rtl.Cmp _, _, _), _ -> true  (* 0 or 1 fits any width, any sign *)
  | Un (Rtl.Zext w', _), Rtl.Unsigned -> Width.compare w' w <= 0
  | Un (Rtl.Sext w', _), Rtl.Signed -> Width.compare w' w <= 0
  | Un (Rtl.Zext w', _), Rtl.Signed -> Width.compare w' w < 0
  | _ -> false

let rec un ctx op t =
  match (op, t) with
  | _, Con x -> Con (Rtl.eval_unop op x)
  | Rtl.Neg, Un (Rtl.Neg, x) -> x
  | Rtl.Not, Un (Rtl.Not, x) -> x
  | (Rtl.Sext Width.W64 | Rtl.Zext Width.W64), _ -> t
  | Rtl.Zext w, _ when fits w Rtl.Unsigned t -> t
  | Rtl.Sext w, _ when fits w Rtl.Signed t -> t
  | Rtl.Zext w, Un (Rtl.Zext w', x) when Width.compare w w' < 0 ->
    un ctx (Rtl.Zext w) x
  | Rtl.Sext w, Un ((Rtl.Sext w' | Rtl.Zext w'), x)
    when Width.compare w w' < 0 ->
    un ctx (Rtl.Sext w) x
  | Rtl.Zext w, Un (Rtl.Sext w', x) when Width.equal w w' ->
    un ctx (Rtl.Zext w) x
  | _ -> Un (op, t)

(* extension of a raw w-byte payload (the low bytes of [v]) *)
let extend ctx w sign v =
  match sign with
  | Rtl.Unsigned -> un ctx (Rtl.Zext w) v
  | Rtl.Signed -> un ctx (Rtl.Sext w) v

let rec ext ctx src pos w sign =
  (* Extract uses only the low 3 bits of the position *)
  let pos = match pos with Con p -> Con (Int64.logand p 7L) | p -> p in
  match (src, pos) with
  | Con v, Con p ->
    Con
      (Rtl.extract_bytes v ~pos:(Int64.to_int p) ~width:w ~sign)
  | _, Con 0L -> extend ctx w sign src
  | Ins (dst, ins_src, ins_pos, ins_w), _ -> (
    let ins_pos =
      match ins_pos with Con p -> Con (Int64.logand p 7L) | p -> p
    in
    if equal pos ins_pos && Width.equal w ins_w then
      (* reading back exactly the inserted field. For constant positions
         this is exact when the field stays inside the register; for
         symbolic positions it relies on the alignment the old side's
         trapping access guarantees (the shapes only arise from the
         legalizer's container expansion on such machines). *)
      match pos with
      | Con p when Int64.to_int p + Width.bytes w <= 8 ->
        extend ctx w sign ins_src
      | Con _ -> Ext (src, pos, w, sign)
      | _ when Width.equal ctx.word Width.W64 -> extend ctx w sign ins_src
      | _ -> Ext (src, pos, w, sign)
    else
      match (pos, ins_pos) with
      | Con p, Con q
        when Int64.to_int p + Width.bytes w <= 8
             && (Int64.to_int q >= Int64.to_int p + Width.bytes w
                || Int64.to_int q + Width.bytes ins_w <= Int64.to_int p) ->
        (* the insert landed in disjoint bytes of the register *)
        ext ctx dst pos w sign
      | _ -> Ext (src, pos, w, sign))
  | Read (m, a, wr, _), Con k
    when Int64.to_int k + Width.bytes w <= Width.bytes wr ->
    (* bytes k..k+w-1 of a wide load are the narrow load at a+k: the
       coalescer's extract shape *)
    read ctx m (bin ctx Rtl.Add a (Con k)) w sign
  | Read (m, a8, Width.W64, Rtl.Unsigned), _
    when Width.equal ctx.word Width.W64
         && equal a8 (bin ctx Rtl.And pos (Con (-8L))) ->
    (* the legalizer's container load: LDQ_U at pos & -8 then extract at
       pos is the aligned narrow load at pos (the old side's access
       traps unless pos is w-aligned, so pos's field cannot straddle the
       container) *)
    read ctx m pos w sign
  | _ -> Ext (src, pos, w, sign)

and ins ctx dst src pos w =
  let pos = match pos with Con p -> Con (Int64.logand p 7L) | p -> p in
  match (dst, src, pos) with
  | Con d, Con s, Con p ->
    Con (Rtl.insert_bytes d ~src:s ~pos:(Int64.to_int p) ~width:w)
  | _, _, Con 0L when Width.equal w Width.W64 -> src
  | Ins (d0, _, pos', w'), _, _ when equal pos pos' && Width.equal w w' ->
    ins ctx d0 src pos w
  | _ -> Ins (dst, src, pos, w)

(* select over store *)
and read ctx m a w sign =
  match m with
  | MWrite (m', aw, ww, v) ->
    let wb = Width.bytes w and wwb = Width.bytes ww in
    if covers aw wwb a wb then
      (* the read falls entirely inside the stored value *)
      let _, ka = split_addr a and _, kw = split_addr aw in
      ext ctx v (Con (Int64.sub ka kw)) w sign
    else if disjoint ctx a wb aw wwb then read ctx m' a w sign
    else Read (m, a, w, sign)
  | MSym _ -> Read (m, a, w, sign)

(* store; the result stays canonical:
   - storing back what is already there is the identity;
   - a store fully covered by the new one is dropped;
   - the legalizer's split-store pair re-fuses into the wide store;
   - the legalizer's container store (load container / insert / store
     container) collapses to the narrow store it implements;
   - adjacent provably-disjoint stores are kept sorted by address so
     both sides of a schedule converge to the same chain. *)
and write ctx m a w v =
  let wb = Width.bytes w in
  let identity () =
    match v with
    | Read (m0, a0, w0, _) ->
      equal_mem m0 m && equal a0 a && Width.compare w w0 <= 0
    | Un ((Rtl.Zext we | Rtl.Sext we), Read (m0, a0, w0, _)) ->
      Width.compare w we <= 0 && Width.compare w w0 <= 0 && equal_mem m0 m
      && equal a0 a
    | _ -> false
  in
  if identity () then m
  else
    (* container store: [a] is the container base [pos & -8] and [v] is
       the container's former bytes with the narrow field replaced *)
    let container () =
      if not (Width.equal ctx.word Width.W64 && Width.equal w Width.W64)
      then None
      else
        match v with
        | Ins (Read (m', a8', Width.W64, Rtl.Unsigned), src, pos, wn)
          when equal a8' a && equal a (bin ctx Rtl.And pos (Con (-8L))) -> (
          match strip_disjoint ctx m a 8 with
          | Some m0 when equal_mem m0 m' -> Some (write ctx m pos wn src)
          | _ -> None)
        | _ -> None
    in
    match container () with
    | Some m'' -> m''
    | None -> (
      match m with
      (* overwrite: the older store's bytes are fully covered *)
      | MWrite (m0, a0, w0, _) when covers a wb a0 (Width.bytes w0) ->
        write ctx m0 a w v
      (* split-store fusion, low half stored first *)
      | MWrite (m0, a0, Width.W32, v0)
        when Width.equal w Width.W32
             && equal a (bin ctx Rtl.Add a0 (Con 4L))
             && equal v (bin ctx Rtl.Lshr v0 (Con 32L)) ->
        write ctx m0 a0 Width.W64 v0
      (* split-store fusion, high half stored first *)
      | MWrite (m0, a0, Width.W32, v0)
        when Width.equal w Width.W32
             && equal a0 (bin ctx Rtl.Add a (Con 4L))
             && equal v0 (bin ctx Rtl.Lshr v (Con 32L)) ->
        write ctx m0 a Width.W64 v
      (* canonical order of independent stores (insertion sort step) *)
      | MWrite (m0, a0, w0, v0)
        when disjoint ctx a wb a0 (Width.bytes w0)
             && addr_lt a a0 ->
        MWrite (write ctx m0 a w v, a0, w0, v0)
      | _ -> MWrite (m, a, w, v))

(* strictly-before order on addresses: same base by offset, otherwise by
   the structural order (deterministic on both sides) *)
and addr_lt a b =
  let ba, ka = split_addr a and bb, kb = split_addr b in
  if equal ba bb then Int64.compare ka kb < 0
  else compare_term ba bb < 0

(* peel stores provably disjoint from [a, a+n) off the top of [m] *)
and strip_disjoint ctx m a n =
  match m with
  | MWrite (m', aw, ww, _) when disjoint ctx a n aw (Width.bytes ww) ->
    strip_disjoint ctx m' a n
  | m -> Some m

(* Public entry points intern their results: every composite node an env
   can hold is hash-consed in the ctx's table, so the old and new
   executions of a block pair converge on one physical node per value
   and their final comparison runs on the graph, not the tree. The
   rewriting workers above stay raw — their intermediates are shallow
   wrappers around already-interned children, which intern in O(1)
   here. *)
let bin ctx op a b = intern ctx.it (bin ctx op a b)
let un ctx op t = intern ctx.it (un ctx op t)
let ext ctx src pos w sign = intern ctx.it (ext ctx src pos w sign)
let ins ctx dst src pos w = intern ctx.it (ins ctx dst src pos w)
let read ctx m a w sign = intern ctx.it (read ctx m a w sign)
let write ctx m a w v = intern_mem ctx.it (write ctx m a w v)

(* --- execution ------------------------------------------------------ *)

type event = { ev_index : int; ev_func : string; ev_args : term list }

type env = {
  regs : term Reg.Map.t;
  mem : mem;
  events : event list;
  ncall : int;
}

let empty_env =
  { regs = Reg.Map.empty; mem = MSym MEntry; events = []; ncall = 0 }

let lookup env r =
  match Reg.Map.find_opt r env.regs with
  | Some t -> t
  | None -> Sym (SEntry r)

let operand env = function
  | Rtl.Reg r -> lookup env r
  | Rtl.Imm i -> Con i

let set env r t = { env with regs = Reg.Map.add r t env.regs }

let effective ctx env (m : Rtl.mem) =
  let a = bin ctx Rtl.Add (lookup env m.base) (Con m.disp) in
  if m.aligned then a
  else
    (* an unaligned access silently hits the enclosing aligned word *)
    bin ctx Rtl.And a (Con (Int64.of_int (-Width.bytes m.width)))

let exec_inst ctx env (i : Rtl.inst) =
  match i.kind with
  | Rtl.Move (d, o) -> set env d (operand env o)
  | Rtl.Binop (op, d, a, b) ->
    set env d (bin ctx op (operand env a) (operand env b))
  | Rtl.Unop (op, d, a) -> set env d (un ctx op (operand env a))
  | Rtl.Load { dst; src; sign } ->
    set env dst (read ctx env.mem (effective ctx env src) src.width sign)
  | Rtl.Store { src; dst } ->
    { env with
      mem = write ctx env.mem (effective ctx env dst) dst.width
              (operand env src) }
  | Rtl.Extract { dst; src; pos; width; sign } ->
    set env dst (ext ctx (lookup env src) (operand env pos) width sign)
  | Rtl.Insert { dst; src; pos; width } ->
    set env dst
      (ins ctx (lookup env dst) (operand env src) (operand env pos) width)
  | Rtl.Call { dst; func; args } ->
    let ev =
      { ev_index = env.ncall; ev_func = func;
        ev_args = List.map (operand env) args }
    in
    let env =
      { env with events = ev :: env.events; ncall = env.ncall + 1;
        mem = MSym (MCall ev.ev_index) }
    in
    (match dst with
    | Some d -> set env d (Sym (SCall ev.ev_index))
    | None -> env)
  | Rtl.Label _ | Rtl.Nop | Rtl.Jump _ | Rtl.Branch _ | Rtl.Ret _ -> env

let exec_insts ctx env insts = List.fold_left (exec_inst ctx) env insts

(* --- printing and mismatch minimization ----------------------------- *)

let pp_sym ppf = function
  | SEntry r -> Format.fprintf ppf "%s" (Reg.to_string r)
  | SCall n -> Format.fprintf ppf "call#%d" n

let cmp_name = function
  | Rtl.Eq -> "eq" | Rtl.Ne -> "ne" | Rtl.Lt -> "lt" | Rtl.Le -> "le"
  | Rtl.Gt -> "gt" | Rtl.Ge -> "ge" | Rtl.Ltu -> "ltu" | Rtl.Leu -> "leu"
  | Rtl.Gtu -> "gtu" | Rtl.Geu -> "geu"

let binop_name = function
  | Rtl.Add -> "add" | Rtl.Sub -> "sub" | Rtl.Mul -> "mul"
  | Rtl.Div -> "div" | Rtl.Rem -> "rem" | Rtl.And -> "and"
  | Rtl.Or -> "or" | Rtl.Xor -> "xor" | Rtl.Shl -> "shl"
  | Rtl.Lshr -> "lshr" | Rtl.Ashr -> "ashr"
  | Rtl.Cmp c -> "cmp." ^ cmp_name c

let sign_tag = function Rtl.Signed -> "s" | Rtl.Unsigned -> "u"

let rec pp_term ppf = function
  | Sym s -> pp_sym ppf s
  | Con c -> Format.fprintf ppf "%Ld" c
  | Bin (op, a, b) ->
    Format.fprintf ppf "(%s %a %a)" (binop_name op) pp_term a pp_term b
  | Un (Rtl.Neg, a) -> Format.fprintf ppf "(neg %a)" pp_term a
  | Un (Rtl.Not, a) -> Format.fprintf ppf "(not %a)" pp_term a
  | Un (Rtl.Sext w, a) ->
    Format.fprintf ppf "(sext.%a %a)" Width.pp w pp_term a
  | Un (Rtl.Zext w, a) ->
    Format.fprintf ppf "(zext.%a %a)" Width.pp w pp_term a
  | Ext (s, p, w, g) ->
    Format.fprintf ppf "(ext.%a.%s %a @@%a)" Width.pp w (sign_tag g) pp_term
      s pp_term p
  | Ins (d, s, p, w) ->
    Format.fprintf ppf "(ins.%a %a <- %a @@%a)" Width.pp w pp_term d pp_term
      s pp_term p
  | Read (m, a, w, g) ->
    Format.fprintf ppf "(load.%a.%s %a %a)" Width.pp w (sign_tag g) pp_mem m
      pp_term a

and pp_mem ppf = function
  | MSym MEntry -> Format.pp_print_string ppf "M0"
  | MSym (MCall n) -> Format.fprintf ppf "M.call#%d" n
  | MWrite (m, a, w, v) ->
    Format.fprintf ppf "(store.%a %a %a %a)" Width.pp w pp_mem m pp_term a
      pp_term v

(* node count of the value graph: each physically distinct node counts
   once, so shared (interned) subterms cannot blow the size up to the
   tree's *)
let term_size t =
  let seen_t = TermTbl.create 64 and seen_m = MemTbl.create 16 in
  let rec go t =
    if TermTbl.mem seen_t t then 0
    else begin
      TermTbl.add seen_t t ();
      match t with
      | Sym _ | Con _ -> 1
      | Un (_, a) -> 1 + go a
      | Bin (_, a, b) -> 1 + go a + go b
      | Ext (s, p, _, _) -> 1 + go s + go p
      | Ins (d, s, p, _) -> 1 + go d + go s + go p
      | Read (m, a, _, _) -> 1 + go_mem m + go a
    end
  and go_mem m =
    if MemTbl.mem seen_m m then 0
    else begin
      MemTbl.add seen_m m ();
      match m with
      | MSym _ -> 1
      | MWrite (m, a, _, v) -> 1 + go_mem m + go a + go v
    end
  in
  go t

(* Walk down through equal constructors while exactly one child pair
   differs: the smallest honest mismatch to show in a diagnostic. *)
let rec first_diff a b =
  let children = function
    | Sym _ | Con _ -> []
    | Un (_, x) -> [ x ]
    | Bin (_, x, y) -> [ x; y ]
    | Ext (s, p, _, _) -> [ s; p ]
    | Ins (d, s, p, _) -> [ d; s; p ]
    | Read (_, x, _, _) -> [ x ]
  in
  let same_shape =
    match (a, b) with
    | Bin (o1, _, _), Bin (o2, _, _) -> o1 = o2
    | Un (o1, _), Un (o2, _) -> o1 = o2
    | Ext (_, _, w1, g1), Ext (_, _, w2, g2) -> Width.equal w1 w2 && g1 = g2
    | Ins (_, _, _, w1), Ins (_, _, _, w2) -> Width.equal w1 w2
    | Read (m1, _, w1, g1), Read (m2, _, w2, g2) ->
      Width.equal w1 w2 && g1 = g2 && equal_mem m1 m2
    | _ -> false
  in
  if not same_shape then (a, b)
  else
    let diffs =
      List.filter
        (fun (x, y) -> not (equal x y))
        (List.combine (children a) (children b))
    in
    match diffs with [ (x, y) ] -> first_diff x y | _ -> (a, b)

let first_diff_mem m1 m2 =
  match (m1, m2) with
  | MWrite (n1, a1, w1, v1), MWrite (n2, a2, w2, v2)
    when Width.equal w1 w2 && equal_mem n1 n2 ->
    if equal a1 a2 && not (equal v1 v2) then Either.Left (first_diff v1 v2)
    else if (not (equal a1 a2)) && equal v1 v2 then
      Either.Left (first_diff a1 a2)
    else Either.Right (m1, m2)
  | _ -> Either.Right (m1, m2)
