type direction = Forward | Backward

type 'a solution = { inb : 'a array; outb : 'a array }

(* Every analysis here is gen/kill ([out = gen ∪ (in − kill)] per block),
   so one solver covers liveness, reaching definitions, available copies
   and the validator's available expressions. Values are
   [Bitv.t option]; [None] is the must-analysis Top ("unreached:
   everything holds vacuously"), which is the meet identity and a
   transfer fixed point. May-analyses ([Union]) never see [None] in the
   result. A must-analysis given [~universe] has no such Top: every
   block starts at the universe and transfers it like any other value.

   Iteration sweeps the blocks in reverse postorder (postorder of the
   forward graph for backward problems), re-transferring a block only
   when the value of one of its flow predecessors changed since the
   block was last transferred. A skipped block would recompute exactly
   the value it holds, so each sweep leaves the same state a full sweep
   would; on reducible flow graphs most blocks are transferred once or
   twice. *)

type meet_op = Union | Inter

let solve_bits ?universe (cfg : Mac_cfg.Cfg.t) ~direction ~meet ~gen ~kill
    ~boundary =
  let n = Array.length cfg.blocks in
  let preds, succs, is_boundary =
    match direction with
    | Forward -> (cfg.pred, cfg.succ, fun b -> b = 0)
    | Backward -> (cfg.succ, cfg.pred, fun b -> cfg.succ.(b) = [])
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
  let start () = Option.map Bitv.copy universe in
  let fin = Array.init n (fun _ -> start ())
  and fout = Array.init n (fun _ -> start ()) in
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
  (* every block is transferred at least once *)
  let dirty = Array.make n true and ndirty = ref n in
  while !ndirty > 0 do
    Array.iter
      (fun b ->
        if dirty.(b) then begin
          dirty.(b) <- false;
          decr ndirty;
          let v_in = flow_in b in
          let v_out = Option.map (transfer b) v_in in
          fin.(b) <- v_in;
          if not (opt_equal v_out fout.(b)) then begin
            fout.(b) <- v_out;
            List.iter
              (fun s ->
                if not dirty.(s) then begin
                  dirty.(s) <- true;
                  incr ndirty
                end)
              succs.(b)
          end
        end)
      order
  done;
  match direction with
  | Forward -> { inb = fin; outb = fout }
  | Backward -> { inb = fout; outb = fin }
