open Mac_rtl
module Linform = Mac_opt.Linform

type direction = Dload of Rtl.signedness | Dstore of Rtl.operand

type ref_info = {
  index : int;
  inst : Rtl.inst;
  mem : Rtl.mem;
  dir : direction;
  addr : Linform.t;
}

type t = {
  id : int;
  terms : (Linform.sym * int64) list;
  refs : ref_info list;
}

type analysis = { partitions : t list; env_end : Linform.env }

let ref_of_inst env index (i : Rtl.inst) =
  match i.kind with
  | Rtl.Load { src; sign; _ } ->
    Some
      { index; inst = i; mem = src; dir = Dload sign;
        addr = Linform.address_of env src }
  | Rtl.Store { src; dst } ->
    Some
      { index; inst = i; mem = dst; dir = Dstore src;
        addr = Linform.address_of env dst }
  | _ -> None

let analyze body =
  let env = ref (Linform.initial_env ()) in
  let refs =
    List.mapi
      (fun index (i : Rtl.inst) ->
        let r = ref_of_inst !env index i in
        env := Linform.step !env i.kind;
        r)
      body
    |> List.filter_map Fun.id
  in
  (* Group by symbolic terms, preserving first-seen order. *)
  let groups : (Linform.sym * int64) list list ref = ref [] in
  let terms_equal t1 t2 =
    Linform.same_terms
      { Linform.const = 0L; terms = t1 }
      { Linform.const = 0L; terms = t2 }
  in
  List.iter
    (fun r ->
      let t = r.addr.Linform.terms in
      if not (List.exists (terms_equal t) !groups) then
        groups := !groups @ [ t ])
    refs;
  let partitions =
    List.mapi
      (fun id terms ->
        let members =
          List.filter (fun r -> terms_equal r.addr.Linform.terms terms) refs
        in
        { id; terms; refs = members })
      !groups
  in
  { partitions; env_end = !env }

let advance analysis p =
  (* Change of the symbolic part over one iteration: sum over terms of
     coeff * (value of reg at end - value at entry); constant only if each
     involved register's end value is [entry + const]. *)
  List.fold_left
    (fun acc (sym, coeff) ->
      match (acc, sym) with
      | None, _ -> None
      | Some total, Linform.Opaque _ -> if coeff = 0L then Some total else None
      | Some total, Linform.Entry r ->
        let end_form = Linform.eval_reg analysis.env_end r in
        let delta = Linform.sub end_form (Linform.entry r) in
        (match Linform.as_const delta with
        | Some d -> Some (Int64.add total (Int64.mul coeff d))
        | None -> None))
    (Some 0L) p.terms

let offsets p =
  List.map (fun r -> r.addr.Linform.const) p.refs
  |> List.sort_uniq Int64.compare

type group = {
  partition : t;
  window_start : int64;
  wide : Width.t;
  members : ref_info list;
}

let covered window_start wide (r : ref_info) =
  let c = r.addr.Linform.const in
  Int64.compare window_start c <= 0
  && Int64.compare
       (Int64.add c (Int64.of_int (Width.bytes r.mem.width)))
       (Int64.add window_start (Int64.of_int (Width.bytes wide)))
     <= 0

let residue v m =
  let r = Int64.rem v (Int64.of_int m) in
  if Int64.compare r 0L < 0 then Int64.add r (Int64.of_int m) else r

(* Greedy window selection: repeatedly pick the candidate start (taken from
   the remaining refs' offsets) covering the most remaining refs; stop when
   no window covers at least two. Once a window is chosen, later windows
   must share its start residue modulo the wide width. *)
let select_windows ?initial_residue refs ~wide ~full_coverage partition =
  let wbytes = Width.bytes wide in
  let align_down v =
    Int64.sub v (residue v wbytes)
  in
  let rec go remaining residue_constraint acc =
    let candidates =
      (* Candidate window starts: each remaining offset itself, plus its
         aligned-down position — the start a naturally-aligned base makes
         aligned, which matters for tap patterns like convolution's
         [x], [x+1], [x+2]. *)
      List.concat_map
        (fun r ->
          let o = r.addr.Linform.const in
          [ o; align_down o ])
        remaining
      |> List.sort_uniq Int64.compare
      |> List.filter (fun s ->
             match residue_constraint with
             | None -> true
             | Some res -> Int64.equal (residue s wbytes) res)
    in
    let scored =
      List.map
        (fun s -> (s, List.filter (covered s wide) remaining))
        candidates
    in
    (* Prefer windows whose start is a multiple of the wide width: those
       are the ones the run-time alignment check accepts when the base
       itself is naturally aligned (the common case). A skewed window may
       cover one more reference but would dispatch to the safe loop on
       every aligned input. *)
    let scored =
      let aligned0 =
        List.filter
          (fun (s, members) ->
            Int64.equal (residue s wbytes) 0L && List.length members >= 2)
          scored
      in
      if aligned0 <> [] && residue_constraint = None then aligned0
      else scored
    in
    let scored =
      List.filter
        (fun (s, members) ->
          List.length members >= 2
          &&
          if full_coverage then begin
            (* Every byte of the window must be written by some member. *)
            let hit = Array.make wbytes false in
            List.iter
              (fun r ->
                let lo = Int64.to_int (Int64.sub r.addr.Linform.const s) in
                for b = lo to lo + Width.bytes r.mem.width - 1 do
                  if b >= 0 && b < wbytes then hit.(b) <- true
                done)
              members;
            Array.for_all Fun.id hit
          end
          else true)
        scored
    in
    match
      List.fold_left
        (fun best (s, members) ->
          match best with
          | Some (_, bm) when List.length bm >= List.length members -> best
          | _ -> Some (s, members))
        None scored
    with
    | None -> List.rev acc
    | Some (s, members) ->
      let member_idx = List.map (fun r -> r.index) members in
      let remaining =
        List.filter (fun r -> not (List.mem r.index member_idx)) remaining
      in
      let group =
        {
          partition;
          window_start = s;
          wide;
          members = List.sort (fun a b -> Stdlib.compare a.index b.index) members;
        }
      in
      go remaining (Some (residue s wbytes)) (group :: acc)
  in
  go refs initial_residue []

let select_load_groups p ~wide =
  let loads =
    List.filter (fun r -> match r.dir with Dload _ -> true | _ -> false) p.refs
  in
  select_windows loads ~wide ~full_coverage:false p

let select_store_groups ?residue p ~wide =
  let stores =
    List.filter (fun r -> match r.dir with Dstore _ -> true | _ -> false) p.refs
  in
  select_windows ?initial_residue:residue stores ~wide ~full_coverage:true p
