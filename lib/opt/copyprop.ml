open Mac_rtl
module Copies = Mac_dataflow.Copies

(* Rewrites a use of register [r] by following the available copy chain;
   the chain is acyclic because each map entry was available simultaneously.
   [look] answers what [Reg.Map.find_opt] on the available-copy map
   would. *)
let rec resolve look r =
  match look r with
  | Some (Rtl.Reg s) -> resolve look s
  | Some (Rtl.Imm _ as imm) -> imm
  | None -> Rtl.Reg r

(* Each rewrite returns its argument itself when nothing in it changes,
   so an untouched instruction keeps its record. A chain never resolves
   back to the register it started from, so a change is always a
   different operand. *)
let rewrite_operand look = function
  | Rtl.Reg r as o -> if Option.is_none (look r) then o else resolve look r
  | Rtl.Imm _ as i -> i

(* Operand positions that must stay registers (memory bases, extract
   sources) only follow register-to-register links. *)
let rewrite_reg look r =
  match resolve look r with Rtl.Reg s -> s | Rtl.Imm _ -> r

let rewrite_mem look (m : Rtl.mem) =
  let base = rewrite_reg look m.base in
  if base = m.base then m else { m with base }

let rewrite_kind look (k : Rtl.kind) =
  let op = rewrite_operand look in
  match k with
  | Rtl.Move (d, s) ->
    let s' = op s in
    if s' == s then k else Rtl.Move (d, s')
  | Rtl.Binop (o, d, a, b) ->
    let a' = op a and b' = op b in
    if a' == a && b' == b then k else Rtl.Binop (o, d, a', b')
  | Rtl.Unop (o, d, a) ->
    let a' = op a in
    if a' == a then k else Rtl.Unop (o, d, a')
  | Rtl.Load ({ src; _ } as l) ->
    let src' = rewrite_mem look src in
    if src' == src then k else Rtl.Load { l with src = src' }
  | Rtl.Store { src; dst } ->
    let src' = op src and dst' = rewrite_mem look dst in
    if src' == src && dst' == dst then k
    else Rtl.Store { src = src'; dst = dst' }
  | Rtl.Extract e ->
    let src = rewrite_reg look e.src and pos = op e.pos in
    if src = e.src && pos == e.pos then k else Rtl.Extract { e with src; pos }
  | Rtl.Insert i ->
    (* dst is read-modify-write: rewriting it as a use would change which
       register is written, so leave it alone. *)
    let src = op i.src and pos = op i.pos in
    if src == i.src && pos == i.pos then k else Rtl.Insert { i with src; pos }
  | Rtl.Branch b ->
    let l = op b.l and r = op b.r in
    if l == b.l && r == b.r then k else Rtl.Branch { b with l; r }
  | Rtl.Call c ->
    let args = List.map op c.args in
    if List.for_all2 ( == ) args c.args then k else Rtl.Call { c with args }
  | Rtl.Ret (Some o) ->
    let o' = op o in
    if o' == o then k else Rtl.Ret (Some o')
  | Rtl.Jump _ | Rtl.Label _ | Rtl.Ret None | Rtl.Nop -> k

let run ?am (f : Func.t) =
  let am =
    match am with Some am -> am | None -> Mac_dataflow.Analysis.create f
  in
  let cfg = Mac_dataflow.Analysis.cfg am in
  let copies = Mac_dataflow.Analysis.copies am in
  let changed = ref false in
  let body =
    Array.to_list cfg.blocks
    |> List.concat_map (fun (b : Mac_cfg.Cfg.block) ->
           (* reverse-order accumulation; one reversal per block *)
           Copies.fold_block copies b.index ~init:[]
             ~f:(fun acc (i : Rtl.inst) look ->
               let k' = rewrite_kind look i.kind in
               if k' != i.kind then begin
                 changed := true;
                 { i with kind = k' } :: acc
               end
               else i :: acc)
           |> List.rev)
  in
  if !changed then begin
    Func.set_body f body;
    (* A 1:1 kind rewrite: labels, terminator targets and block
       boundaries are untouched, so the block-index structures
       survive. *)
    Mac_dataflow.Analysis.invalidate am
      ~preserves:
        [ Mac_dataflow.Analysis.Dom; Mac_dataflow.Analysis.Loops ]
  end;
  !changed
