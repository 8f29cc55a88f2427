type direction = Forward | Backward

type 'a solution = { inb : 'a array; outb : 'a array }

(* Every analysis here is gen/kill ([out = gen ∪ (in − kill)] per block),
   so one solver covers liveness, reaching definitions and available
   copies. Values are [Bitv.t option]; [None] is the must-analysis Top
   ("unreached: everything holds vacuously"), which is the meet identity
   and a transfer fixed point. May-analyses ([Union]) never see [None]
   in the result.

   Iteration sweeps the blocks in reverse postorder (postorder of the
   forward graph for backward problems) until a sweep changes nothing;
   on reducible flow graphs that is 2–3 sweeps, where a round-robin over
   block indices can take a pass per loop level. *)

type meet_op = Union | Inter

let solve_bits (cfg : Mac_cfg.Cfg.t) ~direction ~meet ~gen ~kill ~boundary =
  let n = Array.length cfg.blocks in
  let preds, is_boundary =
    match direction with
    | Forward -> (cfg.pred, fun b -> b = 0)
    | Backward -> (cfg.succ, fun b -> cfg.succ.(b) = [])
  in
  let order =
    let rpo = Mac_cfg.Cfg.rpo cfg in
    match direction with
    | Forward -> rpo
    | Backward ->
      let m = Array.length rpo in
      Array.init m (fun i -> rpo.(m - 1 - i))
  in
  (* fin.(b) is the value flowing into block [b]'s transfer (block entry
     for forward analyses, block exit for backward ones); fout.(b) the
     transferred value. For [Inter], [None] is Top; for [Union], [None]
     is "not yet computed" and reads as the empty set. *)
  let fin = Array.make n None and fout = Array.make n None in
  let transfer b v =
    let r = Bitv.copy v in
    ignore (Bitv.diff_into ~into:r kill.(b));
    ignore (Bitv.union_into ~into:r gen.(b));
    r
  in
  let flow_in b =
    match preds.(b) with
    | [] -> Some (Bitv.copy boundary)
    | ps -> (
      let acc = ref None in
      List.iter
        (fun p ->
          match (fout.(p), !acc) with
          | None, _ when meet = Inter -> () (* Top: meet identity *)
          | None, None -> acc := Some (Bitv.create (Bitv.length boundary))
          | None, Some _ -> ()
          | Some v, None -> acc := Some (Bitv.copy v)
          | Some v, Some a ->
            ignore
              (match meet with
              | Union -> Bitv.union_into ~into:a v
              | Inter -> Bitv.inter_into ~into:a v))
        ps;
      match (!acc, is_boundary b) with
      | None, true -> Some (Bitv.copy boundary)
      | None, false -> None (* all preds Top: stay Top *)
      | Some v, true ->
        ignore
          (match meet with
          | Union -> Bitv.union_into ~into:v boundary
          | Inter -> Bitv.inter_into ~into:v boundary);
        Some v
      | Some v, false -> Some v)
  in
  let opt_equal a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> Bitv.equal a b
    | _ -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        let v_in = flow_in b in
        let v_out = Option.map (transfer b) v_in in
        if not (opt_equal v_in fin.(b) && opt_equal v_out fout.(b)) then begin
          fin.(b) <- v_in;
          fout.(b) <- v_out;
          changed := true
        end)
      order
  done;
  match direction with
  | Forward -> { inb = fin; outb = fout }
  | Backward -> { inb = fout; outb = fin }
