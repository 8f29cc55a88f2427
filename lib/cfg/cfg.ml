open Mac_rtl

type block = {
  index : int;
  label : Rtl.label option;
  insts : Rtl.inst list;
}

type t = {
  func : Func.t;
  blocks : block array;
  succ : int list array;
  pred : int list array;
}

let split_blocks (body : Rtl.inst list) : Rtl.inst list list =
  (* Accumulate instructions; a Label starts a new block, and the
     instruction after a terminator starts a new block. *)
  let finish acc cur =
    match cur with [] -> acc | _ -> List.rev cur :: acc
  in
  let rec go acc cur = function
    | [] -> List.rev (finish acc cur)
    | ({ Rtl.kind = Rtl.Label _; _ } as i) :: rest ->
      go (finish acc cur) [ i ] rest
    | i :: rest when Rtl.is_terminator i.Rtl.kind ->
      go (finish acc (i :: cur)) [] rest
    | i :: rest -> go acc (i :: cur) rest
  in
  go [] [] body

let build (func : Func.t) : t =
  let groups = split_blocks func.body in
  let blocks =
    List.mapi
      (fun index insts ->
        let label =
          match insts with
          | { Rtl.kind = Rtl.Label l; _ } :: _ -> Some l
          | _ -> None
        in
        { index; label; insts })
      groups
    |> Array.of_list
  in
  let n = Array.length blocks in
  let label_index = Hashtbl.create 16 in
  Array.iter
    (fun b ->
      match b.label with
      | Some l -> Hashtbl.replace label_index l b.index
      | None -> ())
    blocks;
  let succ = Array.make n [] and pred = Array.make n [] in
  let add_edge a b =
    if not (List.mem b succ.(a)) then begin
      succ.(a) <- succ.(a) @ [ b ];
      pred.(b) <- pred.(b) @ [ a ]
    end
  in
  Array.iter
    (fun b ->
      match List.rev b.insts with
      | [] -> ()
      | last :: _ -> (
        let fallthrough () =
          if b.index + 1 < n then add_edge b.index (b.index + 1)
        in
        match last.Rtl.kind with
        | Rtl.Jump l -> add_edge b.index (Hashtbl.find label_index l)
        | Rtl.Branch { target; _ } ->
          fallthrough ();
          add_edge b.index (Hashtbl.find label_index target)
        | Rtl.Ret _ -> ()
        | _ -> fallthrough ()))
    blocks;
  { func; blocks; succ; pred }

let entry (_ : t) = 0

let block_of_label t l =
  Array.to_seq t.blocks
  |> Seq.filter_map (fun b ->
         match b.label with
         | Some l' when String.equal l l' -> Some b.index
         | _ -> None)
  |> fun s -> Seq.uncons s |> Option.map fst

let non_label_insts b =
  List.filter
    (fun (i : Rtl.inst) ->
      match i.kind with Rtl.Label _ -> false | _ -> true)
    b.insts

let reachable t =
  let n = Array.length t.blocks in
  let seen = Array.make n false in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs t.succ.(i)
    end
  in
  if n > 0 then dfs 0;
  seen

let rpo t =
  let n = Array.length t.blocks in
  let seen = Array.make n false in
  let post = ref [] in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs t.succ.(i);
      post := i :: !post
    end
  in
  if n > 0 then dfs 0;
  (* !post is already reversed postorder; unreachable blocks go last in
     index order so solvers still visit every block. *)
  let unreachable = ref [] in
  for i = n - 1 downto 0 do
    if not seen.(i) then unreachable := i :: !unreachable
  done;
  Array.of_list (!post @ !unreachable)
