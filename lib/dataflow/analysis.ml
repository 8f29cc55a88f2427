(* The per-function analysis manager: memoises the CFG view, dominators,
   natural loops and the dataflow facts, with explicit pass-driven
   invalidation. A pass that reports a change drops everything except the
   facts it declares preserved; a pass that reports no change preserves
   everything by construction.

   Dependency rules enforced here rather than trusted from callers:
   - [Live]/[Reach]/[Copies] embed the CFG view they were computed on, so
     dropping [Cfg] always drops them too (declaring them preserved
     without [Cfg] is meaningless and ignored).
   - [Dom]/[Loops] are pure block-index structures: a pass that rewrites
     instructions 1:1 without touching labels, terminators or block
     boundaries may preserve them across a CFG rebuild — that is the
     case the manager exists for, since dominators are the costly
     recomputation in the coalescer's per-loop iteration.
   - [Loops] needs [Dom]; preserving [Loops] without [Dom] is ignored. *)

open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Dom = Mac_cfg.Dom
module Loop = Mac_cfg.Loop

type fact = Cfg | Dom | Loops | Live | Reach | Copies

type t = {
  func : Func.t;
  mutable cfg : Cfg.t option;
  mutable dom : Dom.t option;
  mutable loops : Loop.t list option;
  mutable live : Liveness.t option;
  mutable reach : Reaching.t option;
  mutable copies : Copies.t option;
}

let create func =
  {
    func;
    cfg = None;
    dom = None;
    loops = None;
    live = None;
    reach = None;
    copies = None;
  }

let memo t get set compute =
  match get t with
  | Some v -> v
  | None ->
    let v = compute () in
    set t (Some v);
    v

let cfg t =
  memo t
    (fun t -> t.cfg)
    (fun t v -> t.cfg <- v)
    (fun () -> Cfg.build t.func)

let dom t =
  let c = cfg t in
  memo t
    (fun t -> t.dom)
    (fun t v -> t.dom <- v)
    (fun () -> Dom.compute c)

let loops t =
  let c = cfg t in
  let d = dom t in
  memo t
    (fun t -> t.loops)
    (fun t v -> t.loops <- v)
    (fun () -> Loop.natural_loops c d)

let liveness t =
  let c = cfg t in
  memo t
    (fun t -> t.live)
    (fun t v -> t.live <- v)
    (fun () -> Liveness.compute c)

let reaching t =
  let c = cfg t in
  memo t
    (fun t -> t.reach)
    (fun t v -> t.reach <- v)
    (fun () -> Reaching.compute c)

let copies t =
  let c = cfg t in
  memo t
    (fun t -> t.copies)
    (fun t v -> t.copies <- v)
    (fun () -> Copies.compute c)

let invalidate t ~preserves =
  let keep f = List.mem f preserves in
  let cfg_kept = keep Cfg in
  if not cfg_kept then t.cfg <- None;
  (* Dom/Loops are block-index structures; they survive without the CFG
     view when declared preserved. *)
  if not (keep Dom) then t.dom <- None;
  if not (keep Loops && keep Dom) then t.loops <- None;
  (* Dataflow facts embed the CFG view: preserved only alongside it. *)
  if not (cfg_kept && keep Live) then t.live <- None;
  if not (cfg_kept && keep Reach) then t.reach <- None;
  if not (cfg_kept && keep Copies) then t.copies <- None

let invalidate_all t = invalidate t ~preserves:[]

(* Cache-coherence probe for the verifier: the memoised CFG view must
   still describe [func]'s body — same instructions (by uid and kind) in
   the same order. A stale view here means some pass declared a [preserves]
   set it did not honour. *)
let coherent t =
  match t.cfg with
  | None -> Ok ()
  | Some c ->
    (* walk the view's blocks against the body; a record a pass kept is
       equal to itself without a look at its kind *)
    let rec cmp i (xs : Rtl.inst list) (ys : Rtl.inst list) b =
      match (xs, ys) with
      | _, [] when b < Array.length c.Cfg.blocks ->
        cmp i xs c.Cfg.blocks.(b).Cfg.insts (b + 1)
      | [], [] -> Ok ()
      | x :: xs, y :: ys ->
        if x == y || (x.Rtl.uid = y.Rtl.uid && x.Rtl.kind = y.Rtl.kind) then
          cmp (i + 1) xs ys b
        else
          Error
            (Printf.sprintf
               "cached CFG diverges from the function body at instruction \
                %d (body uid %d, cached uid %d)"
               i x.Rtl.uid y.Rtl.uid)
      | _ ->
        Error
          (Printf.sprintf
             "cached CFG has %s instructions than the function body"
             (if ys = [] then "fewer" else "more"))
    in
    cmp 0 t.func.Func.body [] 0
