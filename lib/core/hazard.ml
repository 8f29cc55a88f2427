open Mac_rtl
module Linform = Mac_opt.Linform

type alias_pair = { this : Partition.t; other : Partition.t }
type verdict = Safe of alias_pair list | Unsafe of string

let interval (r : Partition.ref_info) =
  let lo = r.addr.Linform.const in
  (lo, Int64.add lo (Int64.of_int (Width.bytes r.mem.width)))

let intervals_overlap (lo1, hi1) (lo2, hi2) =
  Int64.compare lo1 hi2 < 0 && Int64.compare lo2 hi1 < 0

let is_group_member (group : Partition.group) idx =
  List.exists (fun (m : Partition.ref_info) -> m.index = idx) group.members

let partition_of (analysis : Partition.analysis) idx =
  List.find_opt
    (fun (p : Partition.t) ->
      List.exists (fun (r : Partition.ref_info) -> r.index = idx) p.refs)
    analysis.partitions

let ref_at (analysis : Partition.analysis) idx =
  List.concat_map (fun (p : Partition.t) -> p.refs) analysis.partitions
  |> List.find_opt (fun (r : Partition.ref_info) -> r.index = idx)

let group_is_load (group : Partition.group) =
  match group.members with
  | { dir = Partition.Dload _; _ } :: _ -> true
  | _ -> false

(* Scan the instructions strictly between [lo] and [hi] (body indices) and
   check each against the member's byte interval. [conflicts] decides
   whether an intervening reference of a given direction conflicts. *)
let scan_range ~body_arr ~analysis ~group ~member_interval ~lo ~hi ~conflicts
    acc =
  let p_id = (group : Partition.group).partition.id in
  let rec go idx acc =
    if idx >= hi then Ok acc
    else
      let i : Rtl.inst = body_arr.(idx) in
      match i.kind with
      | Rtl.Call _ -> Error "call inside the coalescing region"
      | Rtl.Ret _ -> Error "return inside the coalescing region"
      | k when Rtl.is_memory k -> (
        if is_group_member group idx then go (idx + 1) acc
        else
          match (ref_at analysis idx, partition_of analysis idx) with
          | Some r, Some p ->
            let dir_conflicts = conflicts r.dir in
            if not dir_conflicts then go (idx + 1) acc
            else if p.id = p_id then
              if intervals_overlap (interval r) member_interval then
                Error
                  (Printf.sprintf
                     "same-partition conflicting reference at body index %d"
                     idx)
              else go (idx + 1) acc
            else
              go (idx + 1)
                ({ this = group.partition; other = p } :: acc)
          | _ -> Error "unanalysed memory reference in region")
      | _ -> go (idx + 1) acc
  in
  go lo acc

let dedup_pairs pairs =
  List.fold_left
    (fun acc p ->
      if
        List.exists
          (fun q ->
            q.this.Partition.id = p.this.Partition.id
            && q.other.Partition.id = p.other.Partition.id)
          acc
      then acc
      else p :: acc)
    [] pairs
  |> List.rev

let check ~body ~analysis ~(group : Partition.group) =
  let body_arr = Array.of_list body in
  match group.members with
  | [] -> Unsafe "empty group"
  | first :: _ ->
    let last = List.nth group.members (List.length group.members - 1) in
    let is_load = group_is_load group in
    let result =
      List.fold_left
        (fun acc (m : Partition.ref_info) ->
          match acc with
          | Error _ as e -> e
          | Ok pairs ->
            if is_load then
              (* Wide load at [first.index]; member load delayed reads are
                 stale if anything stores to its bytes in between. *)
              scan_range ~body_arr ~analysis ~group
                ~member_interval:(interval m) ~lo:first.index ~hi:m.index
                ~conflicts:(function
                  | Partition.Dstore _ -> true
                  | Partition.Dload _ -> false)
                pairs
            else
              (* Member store delayed to [last.index]: intervening loads
                 would miss the new value; intervening stores could be
                 overwritten out of order. *)
              scan_range ~body_arr ~analysis ~group
                ~member_interval:(interval m) ~lo:(m.index + 1)
                ~hi:last.index
                ~conflicts:(fun _ -> true)
                pairs)
        (Ok []) group.members
    in
    (match result with
    | Error reason -> Unsafe reason
    | Ok pairs -> Safe (dedup_pairs pairs))
