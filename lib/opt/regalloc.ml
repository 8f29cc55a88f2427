open Mac_rtl
module Machine = Mac_machine.Machine

exception Too_few_registers of string

type result = { virtuals : int; spilled : int; frame_bytes : int }

type interval = {
  vreg : Reg.t;
  start : int;
  finish : int;
  is_param : bool;
}

(* Live intervals as the hull of the positions where the register is
   defined, used or live-across. The block-level liveness solution already
   accounts for back edges: a loop-carried value is live-out of every
   instruction of the loop, so its hull covers the whole loop. *)
let intervals_of am (f : Func.t) =
  let cfg = Mac_dataflow.Analysis.cfg am in
  let live = Mac_dataflow.Analysis.liveness am in
  let first : int Reg.Tbl.t = Reg.Tbl.create 32 in
  let last : int Reg.Tbl.t = Reg.Tbl.create 32 in
  let touch r pos =
    (match Reg.Tbl.find_opt first r with
    | Some p when p <= pos -> ()
    | _ -> Reg.Tbl.replace first r pos);
    match Reg.Tbl.find_opt last r with
    | Some p when p >= pos -> ()
    | _ -> Reg.Tbl.replace last r pos
  in
  List.iter (fun r -> touch r 0) f.params;
  let pos = ref 0 in
  Array.iter
    (fun (b : Mac_cfg.Cfg.block) ->
      List.iter
        (fun ((i : Rtl.inst), live_after) ->
          List.iter (fun r -> touch r !pos) (Rtl.uses i.kind);
          List.iter (fun r -> touch r !pos) (Rtl.defs i.kind);
          Reg.Set.iter (fun r -> touch r !pos) live_after;
          incr pos)
        (Mac_dataflow.Liveness.live_after_each live b.index))
    cfg.blocks;
  let params = Reg.Set.of_list f.params in
  Reg.Tbl.fold
    (fun r start acc ->
      {
        vreg = r;
        start;
        finish = Option.value (Reg.Tbl.find_opt last r) ~default:start;
        is_param = Reg.Set.mem r params;
      }
      :: acc)
    first []
  |> List.sort (fun a b ->
         match compare a.start b.start with
         | 0 -> compare b.is_param a.is_param (* params first *)
         | c -> c)

(* The linear scan itself: returns assignments vreg -> `Phys n | `Slot n. *)
let scan intervals ~allocatable =
  let assignment : [ `Phys of int | `Slot of int ] Reg.Tbl.t =
    Reg.Tbl.create 32
  in
  let free = ref (List.init allocatable Fun.id) in
  let active = ref ([] : (interval * int) list) in
  let next_slot = ref 0 in
  let fresh_slot () =
    let s = !next_slot in
    incr next_slot;
    s
  in
  let expire start =
    let expired, still =
      List.partition (fun (iv, _) -> iv.finish < start) !active
    in
    List.iter (fun (_, phys) -> free := phys :: !free) expired;
    active := still
  in
  List.iter
    (fun iv ->
      expire iv.start;
      match !free with
      | phys :: rest ->
        free := rest;
        Reg.Tbl.replace assignment iv.vreg (`Phys phys);
        active := (iv, phys) :: !active
      | [] -> (
        (* No free register: spill whichever of {the active interval with
           the furthest end, the new interval} ends later. Parameters are
           never spilled. *)
        let victim =
          List.fold_left
            (fun acc ((cand, _) as entry) ->
              if cand.is_param then acc
              else
                match acc with
                | Some ((best : interval), _) when best.finish >= cand.finish
                  ->
                  acc
                | _ -> Some entry)
            None !active
        in
        match victim with
        | Some (v, phys) when v.finish > iv.finish ->
          Reg.Tbl.replace assignment v.vreg (`Slot (fresh_slot ()));
          active := List.filter (fun (a, _) -> not (a == v)) !active;
          Reg.Tbl.replace assignment iv.vreg (`Phys phys);
          active := (iv, phys) :: !active
        | _ ->
          if iv.is_param then
            raise
              (Too_few_registers "cannot keep all parameters in registers");
          Reg.Tbl.replace assignment iv.vreg (`Slot (fresh_slot ()))))
    intervals;
  (assignment, !next_slot)

(* Spill code for slot [slot]. Every slot is 8 bytes, because a register
   holds 64 bits whatever the machine's word. A machine without a 64-bit
   store and load (the 88100, the 68030) moves it as two unsigned W32
   halves through [scratch], as {!Legalize.split_store} and
   {!Legalize.split_load} do, so the reloaded value is exact. *)
let slot_mem ~fp ~width slot ~half =
  { Rtl.base = fp; disp = Int64.of_int ((8 * slot) + (4 * half)); width;
    aligned = true }

let reload ~fp ~scratch ~dst slot =
  match scratch with
  | None ->
    [ Rtl.Load { dst; src = slot_mem ~fp ~width:Width.W64 slot ~half:0;
                 sign = Rtl.Unsigned } ]
  | Some s ->
    let half h = slot_mem ~fp ~width:Width.W32 slot ~half:h in
    [
      Rtl.Load { dst; src = half 0; sign = Rtl.Unsigned };
      Rtl.Load { dst = s; src = half 1; sign = Rtl.Unsigned };
      Rtl.Binop (Rtl.Shl, s, Rtl.Reg s, Rtl.Imm 32L);
      Rtl.Binop (Rtl.Or, dst, Rtl.Reg dst, Rtl.Reg s);
    ]

let spill ~fp ~scratch ~src slot =
  match scratch with
  | None ->
    [ Rtl.Store { src = Rtl.Reg src;
                  dst = slot_mem ~fp ~width:Width.W64 slot ~half:0 } ]
  | Some s ->
    let half h = slot_mem ~fp ~width:Width.W32 slot ~half:h in
    [
      Rtl.Store { src = Rtl.Reg src; dst = half 0 };
      Rtl.Binop (Rtl.Lshr, s, Rtl.Reg src, Rtl.Imm 32L);
      Rtl.Store { src = Rtl.Reg s; dst = half 1 };
    ]

(* Rewrite one instruction: spilled uses are loaded into staging temps
   before it, spilled definitions stored back after it. The mapping is
   computed once over the original registers, so read-modify-write
   destinations (Insert) get both the load and the store. *)
let rewrite_inst assignment ~temps ~fp ~scratch (i : Rtl.inst)
    (fresh : Rtl.kind -> Rtl.inst) =
  let next_temp = ref 0 in
  let temp_of : (int, Reg.t) Hashtbl.t = Hashtbl.create 4 in
  let temp_for r =
    match Hashtbl.find_opt temp_of (Reg.id r) with
    | Some t -> t
    | None ->
      let t =
        match List.nth_opt temps !next_temp with
        | Some t -> t
        | None ->
          raise (Too_few_registers "instruction needs too many spill temps")
      in
      incr next_temp;
      Hashtbl.replace temp_of (Reg.id r) t;
      t
  in
  let mapping r =
    match Reg.Tbl.find_opt assignment r with
    | Some (`Phys p) -> Reg.make p
    | Some (`Slot _) -> temp_for r
    | None -> r
  in
  let spill_code emit regs =
    List.concat_map
      (fun r ->
        match Reg.Tbl.find_opt assignment r with
        | Some (`Slot s) -> emit (temp_for r) s
        | _ -> [])
      regs
  in
  let pre =
    spill_code (fun dst s -> reload ~fp ~scratch ~dst s) (Rtl.uses i.kind)
  in
  let post =
    spill_code (fun src s -> spill ~fp ~scratch ~src s) (Rtl.defs i.kind)
  in
  let kind' = Rtl.map_regs mapping i.kind in
  List.map fresh pre @ [ { i with kind = kind' } ] @ List.map fresh post

let run ?am (f : Func.t) ~(machine : Machine.t) ~num_regs =
  let am =
    match am with Some am -> am | None -> Mac_dataflow.Analysis.create f
  in
  if num_regs < List.length f.params + 4 then
    raise
      (Too_few_registers
         (Printf.sprintf "%d registers for %d parameters" num_regs
            (List.length f.params)));
  let temps = [ Reg.make (num_regs - 3); Reg.make (num_regs - 2);
                Reg.make (num_regs - 1) ] in
  let fp = Reg.make num_regs in
  let intervals = intervals_of am f in
  let assignment, slots = scan intervals ~allocatable:(num_regs - 3) in
  let split =
    not
      (Machine.legal_store machine Width.W64 ~aligned:true
      && Machine.legal_load machine Width.W64 ~aligned:true)
  in
  (* Split spills need a fourth reserved register; give it up only when
     something actually spills, so code that fits is allocated the same
     on every machine. *)
  let assignment, slots, scratch =
    if split && slots > 0 then
      let assignment, slots = scan intervals ~allocatable:(num_regs - 4) in
      (assignment, slots, Some (Reg.make (num_regs - 4)))
    else (assignment, slots, None)
  in
  let fresh kind = Func.inst f kind in
  let body' =
    List.concat_map
      (fun i -> rewrite_inst assignment ~temps ~fp ~scratch i fresh)
      f.body
  in
  Func.set_body f body';
  f.params <-
    List.map
      (fun r ->
        match Reg.Tbl.find_opt assignment r with
        | Some (`Phys p) -> Reg.make p
        | _ -> r)
      f.params;
  if slots > 0 then begin
    f.frame_bytes <- 8 * slots;
    f.fp_reg <- Some fp
  end;
  (* Physical renaming changes every register; spills add loads/stores.
     Nothing survives. *)
  Mac_dataflow.Analysis.invalidate_all am;
  {
    virtuals = List.length intervals;
    spilled = slots;
    frame_bytes = 8 * slots;
  }
