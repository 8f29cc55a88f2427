open Mac_rtl
module IntSet = Set.Make (Int)

type t = {
  header : int;
  latches : int list;
  blocks : IntSet.t;
  preheader : int option;
}

let natural_loop_blocks (cfg : Cfg.t) header latch =
  (* Walk predecessors from the latch until the header. *)
  let rec go acc = function
    | [] -> acc
    | b :: rest ->
      if IntSet.mem b acc then go acc rest
      else go (IntSet.add b acc) (cfg.pred.(b) @ rest)
  in
  if latch = header then IntSet.singleton header
  else go (IntSet.singleton header) [ latch ]

let natural_loops (cfg : Cfg.t) (dom : Dom.t) =
  let reach = Cfg.reachable cfg in
  let n = Array.length cfg.blocks in
  let back_edges = ref [] in
  for b = 0 to n - 1 do
    if reach.(b) then
      List.iter
        (fun s -> if Dom.dominates dom s b then back_edges := (b, s) :: !back_edges)
        cfg.succ.(b)
  done;
  (* Merge back edges by header. *)
  let headers =
    List.sort_uniq Stdlib.compare (List.map snd !back_edges)
  in
  List.map
    (fun header ->
      let latches =
        List.filter_map
          (fun (l, h) -> if h = header then Some l else None)
          !back_edges
        |> List.sort_uniq Stdlib.compare
      in
      let blocks =
        List.fold_left
          (fun acc latch ->
            IntSet.union acc (natural_loop_blocks cfg header latch))
          IntSet.empty latches
      in
      let outside_preds =
        List.filter (fun p -> not (IntSet.mem p blocks)) cfg.pred.(header)
      in
      let preheader =
        match outside_preds with [ p ] -> Some p | _ -> None
      in
      { header; latches; blocks; preheader })
    headers

let is_simple l =
  IntSet.equal l.blocks (IntSet.singleton l.header)
  && match l.latches with [ latch ] -> latch = l.header | _ -> false

type simple = {
  loop : t;
  header_label : Rtl.label;
  body : Rtl.inst list;
  back_branch : Rtl.inst;
}

let simple_of (cfg : Cfg.t) l =
  if not (is_simple l) then None
  else
    let block = cfg.blocks.(l.header) in
    match (block.label, List.rev block.insts) with
    | Some header_label, (({ Rtl.kind = Rtl.Branch b; _ }) as br) :: rev_body
      when String.equal b.target header_label ->
      let body =
        List.rev rev_body
        |> List.filter (fun (i : Rtl.inst) ->
               match i.kind with Rtl.Label _ -> false | _ -> true)
      in
      Some { loop = l; header_label; body; back_branch = br }
    | _ -> None
