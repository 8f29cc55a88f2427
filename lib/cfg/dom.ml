module IntSet = Set.Make (Int)

type t = { doms : IntSet.t array; reachable : bool array }

let compute (cfg : Cfg.t) =
  let n = Array.length cfg.blocks in
  let reachable = Cfg.reachable cfg in
  let full = IntSet.of_list (List.init n Fun.id) in
  let doms = Array.make n full in
  if n > 0 then doms.(0) <- IntSet.singleton 0;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      if reachable.(i) then begin
        let preds = List.filter (fun p -> reachable.(p)) cfg.pred.(i) in
        let meet =
          match preds with
          | [] -> full
          | p :: ps ->
            List.fold_left (fun acc q -> IntSet.inter acc doms.(q)) doms.(p) ps
        in
        let d = IntSet.add i meet in
        if not (IntSet.equal d doms.(i)) then begin
          doms.(i) <- d;
          changed := true
        end
      end
    done
  done;
  { doms; reachable }

let dominates t a b = IntSet.mem a t.doms.(b)
