open Mac_rtl
module Linform = Mac_opt.Linform
module Induction = Mac_opt.Induction
module Congruence = Mac_dataflow.Congruence
module Cfg = Mac_cfg.Cfg
module Dom = Mac_cfg.Dom
module Loop = Mac_cfg.Loop

(* ------------------------------------------------------------------ *)
(* Facts                                                               *)

type facts = {
  aligns : (Reg.t * int) list;
  allocs : (Reg.t * int * Linform.t) list;
  values : (Reg.t * int64) list;
  nonnegs : Reg.t list;
}

let empty = { aligns = []; allocs = []; values = []; nonnegs = [] }

let no_facts f =
  f.aligns = [] && f.allocs = [] && f.values = [] && f.nonnegs = []

let union a b =
  {
    aligns = a.aligns @ b.aligns;
    allocs = a.allocs @ b.allocs;
    values = a.values @ b.values;
    nonnegs = a.nonnegs @ b.nonnegs;
  }

let sym_align_of facts r =
  List.fold_left
    (fun acc (s, k) -> if Reg.equal s r then max acc k else acc)
    0 facts.aligns

let alloc_of facts r =
  List.find_map
    (fun (s, id, size) -> if Reg.equal s r then Some (id, size) else None)
    facts.allocs

let is_nonneg_sym facts r = List.exists (Reg.equal r) facts.nonnegs

(* A linear form over entry values is provably >= 0 when its constant is
   and every term has a non-negative coefficient on a known-non-negative
   symbol. (Terms never carry zero coefficients.) *)
let nonneg_form facts (g : Linform.t) =
  Int64.compare g.Linform.const 0L >= 0
  && List.for_all
       (fun (s, c) ->
         Int64.compare c 0L > 0
         && match s with
            | Linform.Entry r -> is_nonneg_sym facts r
            | Linform.Opaque _ -> false)
       g.Linform.terms

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)

type align_cert = {
  ac_terms : (Linform.sym * int64) list;
  ac_window : int64;
  ac_wide : int;
  ac_claims : (Reg.t * Congruence.value) list;
}

type alias_side = {
  s_terms : (Linform.sym * int64) list;
  s_root : Reg.t;
  s_alloc : int;
  s_off : Linform.t;
  s_lo : Linform.t;
  s_hi : Linform.t;
}

type alias_cert = { ca : alias_side; cb : alias_side }
type cert = Align of align_cert | Alias of alias_cert
type elision = { target : string; reason : string; cert : cert }

let pp_terms ppf terms = Linform.pp ppf { Linform.const = 0L; terms }

let pp_cert ppf = function
  | Align c ->
    Format.fprintf ppf "@[<hov 2>align %a + %Ld mod %d = 0:" pp_terms
      c.ac_terms c.ac_window c.ac_wide;
    List.iter
      (fun (r, v) ->
        Format.fprintf ppf "@ %a@%a" Reg.pp r Congruence.pp_value v)
      c.ac_claims;
    Format.fprintf ppf "@]"
  | Alias c ->
    let side ppf s =
      Format.fprintf ppf "%a in #%d(%a)+[%a, %a)" pp_terms s.s_terms
        s.s_alloc Reg.pp s.s_root Linform.pp
        (Linform.add s.s_off s.s_lo)
        Linform.pp
        (Linform.add s.s_off s.s_hi)
    in
    Format.fprintf ppf "@[<hov 2>noalias: %a@ vs %a@]" side c.ca side c.cb

let pp_elision ppf e =
  Format.fprintf ppf "@[<hov 2>%s (%s):@ %a@]" e.target e.reason pp_cert
    e.cert

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)

type oracle = {
  facts : facts;
  cfg : Cfg.t;
  main_idx : int;
  main_in : Congruence.state;
  dispatch_out : Congruence.state option;
}

let oracle ~facts ~cfg ~main_label =
  match Cfg.block_of_label cfg main_label with
  | None -> None
  | Some main_idx ->
    let sol = Congruence.solve ~consts:facts.values cfg in
    let dispatch_out =
      match
        List.filter (fun p -> p <> main_idx) cfg.Cfg.pred.(main_idx)
      with
      | [ p ] -> Some (Congruence.block_out sol p)
      | _ -> None
    in
    Some
      {
        facts;
        cfg;
        main_idx;
        main_in = Congruence.block_in sol main_idx;
        dispatch_out;
      }

(* --- alignment ------------------------------------------------------ *)

(* The residue proof, shared verbatim between proving and certificate
   replay: the window address  sum_i c_i * r_i + window  is == 0 mod
   2^bits when (a) every term's congruence claim is at least that precise
   ([kmin]), (b) the accumulated per-symbol strides vanish under the
   symbols' alignment facts, and (c) the accumulated constant is 0 mod
   2^bits. [lookup] supplies the congruence claim for each [Entry]
   register — the solver's value when proving, the certificate's claim
   when verifying. *)
let check_residue ~sym_align ~lookup ~terms ~window ~wide_bytes =
  match Width.log2_exact (Int64.of_int wide_bytes) with
  | None -> false
  | Some 0 -> true
  | Some bits ->
    let kmin = ref 64 and const = ref window and ok = ref true in
    let acc : int64 Reg.Tbl.t = Reg.Tbl.create 4 in
    List.iter
      (fun (s, c) ->
        match s with
        | Linform.Opaque _ -> kmin := min !kmin (Congruence.v2 c)
        | Linform.Entry r -> (
          match lookup r with
          | None -> ok := false
          | Some Congruence.Top -> kmin := min !kmin (Congruence.v2 c)
          | Some (Congruence.Lin { sym; stride; off; k }) ->
            kmin := min !kmin (min 64 (k + Congruence.v2 c));
            const := Int64.add !const (Int64.mul c off);
            (match sym with
            | None -> ()
            | Some s ->
              let prev =
                Option.value (Reg.Tbl.find_opt acc s) ~default:0L
              in
              Reg.Tbl.replace acc s
                (Int64.add prev (Int64.mul c stride)))))
      terms;
    let mask = Int64.of_int (wide_bytes - 1) in
    !ok && !kmin >= bits
    && Int64.equal (Int64.logand !const mask) 0L
    && Reg.Tbl.fold
         (fun s coeff ok ->
           ok && Congruence.v2 coeff + sym_align s >= bits)
         acc true

let claims_of o terms =
  List.fold_left
    (fun acc (s, _) ->
      match s with
      | Linform.Opaque _ -> acc
      | Linform.Entry r ->
        if List.exists (fun (r', _) -> Reg.equal r r') acc then acc
        else (r, Congruence.value_of o.main_in r) :: acc)
    [] terms
  |> List.rev

let prove_alignment o ~terms ~window ~wide =
  let claims = claims_of o terms in
  let lookup r =
    List.find_map
      (fun (r', v) -> if Reg.equal r r' then Some v else None)
      claims
  in
  if
    check_residue ~sym_align:(sym_align_of o.facts) ~lookup ~terms ~window
      ~wide_bytes:(Width.bytes wide)
  then
    Some
      { ac_terms = terms; ac_window = window; ac_wide = Width.bytes wide;
        ac_claims = claims }
  else None

(* --- overlap -------------------------------------------------------- *)

(* Resolve a register's value at the dispatch point into entry-value
   space; only exact (k = 64) congruence values qualify. *)
let resolve_reg dout r =
  match Congruence.value_of dout r with
  | Congruence.Lin { sym; stride; off; k = 64 } ->
    let base = Linform.const off in
    Some
      (match sym with
      | None -> base
      | Some s -> Linform.add base (Linform.mul_const (Linform.entry s) stride))
  | _ -> None

let resolve_form dout (f : Linform.t) =
  List.fold_left
    (fun acc (s, c) ->
      match acc with
      | None -> None
      | Some acc -> (
        match s with
        | Linform.Opaque _ -> None
        | Linform.Entry r -> (
          match resolve_reg dout r with
          | None -> None
          | Some v -> Some (Linform.add acc (Linform.mul_const v c)))))
    (Some (Linform.const f.Linform.const))
    f.Linform.terms

let resolve_operand dout = function
  | Rtl.Imm c -> Some (Linform.const c)
  | Rtl.Reg r -> resolve_reg dout r

(* One partition's whole-loop footprint, as the symbolic counterpart of
   {!Checks.dynamic_bounds}: the same [dist]/[total]/[lo]/[hi] formulas
   evaluated over entry values instead of emitted as preheader code. The
   footprint must land inside the partition root's allocation. *)
let side_of o ~(trip : Induction.trip) (e : Checks.extent) =
  match o.dispatch_out with
  | None -> None
  | Some dout -> (
    match resolve_form dout e.Checks.base with
    | None -> None
    | Some base -> (
      let roots =
        List.filter_map
          (fun (s, c) ->
            match s with
            | Linform.Entry r -> (
              match alloc_of o.facts r with
              | Some (id, size) -> Some (r, c, id, size)
              | None -> None)
            | Linform.Opaque _ -> None)
          base.Linform.terms
      in
      match roots with
      | [ (root, 1L, id, size) ] -> (
        let off = Linform.sub base (Linform.entry root) in
        let step_abs = Int64.abs trip.iv.step in
        if
          Int64.equal step_abs 0L
          || not (Int64.equal (Int64.rem e.Checks.advance step_abs) 0L)
        then None
        else
          let kq =
            let q = Int64.div e.Checks.advance step_abs in
            if Int64.compare trip.iv.step 0L < 0 then Int64.neg q else q
          in
          match
            (resolve_operand dout trip.bound, resolve_reg dout trip.iv.reg)
          with
          | Some bound_f, Some iv_f ->
            let adjust = Int64.sub trip.offset trip.iv.step in
            let counting_up = Int64.compare trip.iv.step 0L > 0 in
            let dist =
              if counting_up then
                Linform.sub (Linform.sub bound_f iv_f)
                  (Linform.const adjust)
              else
                Linform.add (Linform.sub iv_f bound_f)
                  (Linform.const adjust)
            in
            let total = Linform.mul_const dist (Int64.abs kq) in
            let adv_abs = Int64.abs e.Checks.advance in
            let lo, hi =
              if Int64.compare kq 0L >= 0 then
                ( Linform.const e.Checks.lo_off,
                  Linform.add total
                    (Linform.const (Int64.sub e.Checks.hi_off adv_abs)) )
              else
                ( Linform.sub
                    (Linform.const (Int64.add e.Checks.lo_off adv_abs))
                    total,
                  Linform.const e.Checks.hi_off )
            in
            if
              nonneg_form o.facts (Linform.add off lo)
              && nonneg_form o.facts
                   (Linform.sub size (Linform.add off hi))
            then
              Some
                {
                  s_terms = e.Checks.base.Linform.terms;
                  s_root = root;
                  s_alloc = id;
                  s_off = off;
                  s_lo = lo;
                  s_hi = hi;
                }
            else None
          | _ -> None)
      | _ -> None))

let prove_noalias o ~trip ~a ~b =
  match (side_of o ~trip a, side_of o ~trip b) with
  | Some sa, Some sb when sa.s_alloc <> sb.s_alloc ->
    Some { ca = sa; cb = sb }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let oracle_res ~facts ~cfg ~main_label =
  match oracle ~facts ~cfg ~main_label with
  | Some o -> Ok o
  | None -> fail "main loop %s not found" main_label

let verify_align ~facts ~cfg ~main_label (c : align_cert) =
  let* o = oracle_res ~facts ~cfg ~main_label in
  let* () =
    if Width.log2_exact (Int64.of_int c.ac_wide) = None then
      fail "window width %d is not a power of two" c.ac_wide
    else Ok ()
  in
  (* every claim must be implied by the value the solver recomputes from
     the output RTL *)
  let* () =
    List.fold_left
      (fun acc (r, claim) ->
        let* () = acc in
        let actual = Congruence.value_of o.main_in r in
        if Congruence.implies ~actual ~claim then Ok ()
        else
          fail "claim %a@%a is not implied by the recomputed value %a"
            Reg.pp r Congruence.pp_value claim Congruence.pp_value actual)
      (Ok ()) c.ac_claims
  in
  let lookup r =
    List.find_map
      (fun (r', v) -> if Reg.equal r r' then Some v else None)
      c.ac_claims
  in
  if
    check_residue ~sym_align:(sym_align_of facts) ~lookup ~terms:c.ac_terms
      ~window:c.ac_window ~wide_bytes:c.ac_wide
  then Ok ()
  else
    fail "residue proof for %a + %Ld mod %d does not replay" pp_terms
      c.ac_terms c.ac_window c.ac_wide

let terms_equal t1 t2 =
  Linform.same_terms { Linform.const = 0L; terms = t1 }
    { Linform.const = 0L; terms = t2 }

let side_equal (x : alias_side) (y : alias_side) =
  terms_equal x.s_terms y.s_terms
  && Reg.equal x.s_root y.s_root
  && x.s_alloc = y.s_alloc
  && Linform.equal x.s_off y.s_off
  && Linform.equal x.s_lo y.s_lo
  && Linform.equal x.s_hi y.s_hi

let verify_alias ~facts ~cfg ~main_label (c : alias_cert) =
  let* o = oracle_res ~facts ~cfg ~main_label in
  (* re-derive the unrolled loop's trip structure from its back branch *)
  let dom = Dom.compute cfg in
  let* simple =
    match
      List.find_opt
        (fun (l : Loop.t) -> l.Loop.header = o.main_idx)
        (Loop.natural_loops cfg dom)
    with
    | None -> fail "no natural loop is headed by %s" main_label
    | Some l -> (
      match Loop.simple_of cfg l with
      | Some s -> Ok s
      | None -> fail "loop %s is not simple" main_label)
  in
  let* trip =
    match Induction.trip_of simple with
    | Some t -> Ok t
    | None -> fail "loop %s has no recognisable trip count" main_label
  in
  (* re-derive both partitions' extents from the loop body *)
  let analysis = Partition.analyze simple.Loop.body in
  let extent_for terms =
    match
      List.find_opt
        (fun (p : Partition.t) -> terms_equal p.Partition.terms terms)
        analysis.Partition.partitions
    with
    | None -> fail "no partition matches %a" pp_terms terms
    | Some p -> (
      match Checks.extent_of analysis p with
      | Some e -> Ok e
      | None -> fail "partition %a has no extent" pp_terms terms)
  in
  let* ea = extent_for c.ca.s_terms in
  let* eb = extent_for c.cb.s_terms in
  let* recomputed =
    match prove_noalias o ~trip ~a:ea ~b:eb with
    | Some w -> Ok w
    | None -> fail "overlap proof does not replay from the output RTL"
  in
  if
    (side_equal recomputed.ca c.ca && side_equal recomputed.cb c.cb)
    || (side_equal recomputed.ca c.cb && side_equal recomputed.cb c.ca)
  then Ok ()
  else fail "recomputed overlap witness does not match the certificate"
