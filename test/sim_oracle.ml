(* The simulator's test oracle: a tree-walking evaluator that shares no
   code with {!Mac_sim.Jit} or {!Mac_sim.Decode}. It re-decodes each
   function on every call (label table, frame sizing) and prices each
   executed instruction through the machine's cost closures. The jit
   must match it instruction for instruction: the same return value,
   heap, metrics (label counts and i-cache misses included) and trap
   strings. test_engine pins that over every workload and random
   kernels; test_opt over a software-pipelined loop. *)

open Mac_rtl
module Machine = Mac_machine.Machine
module Cache = Mac_sim.Cache
module Interp = Mac_sim.Interp
module Memory = Mac_sim.Memory

let trap fmt = Format.kasprintf (fun s -> raise (Interp.Trap s)) fmt

type state = {
  machine : Machine.t;
  memory : Memory.t;
  dcache : Cache.t;
  funcs : (string, Func.t) Hashtbl.t;
  labels : (Rtl.label, int) Hashtbl.t;  (* visit counts *)
  mutable insts : int;
  mutable cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable fuel : int;
  mutable sp : int64;  (* stack grows down from the top of memory *)
  icache : Cache.t option;  (* instruction fetch model, when requested *)
  ibase : (string, int64) Hashtbl.t;  (* synthetic code base per function *)
  mutable inext : int64;  (* next code address to hand out *)
}

(* One function activation: registers and their ready-cycles. *)
type frame = { regs : int64 array; ready : int array }

let frame_of (f : Func.t) =
  (* Size the frame from the registers actually mentioned, not just the
     function's gensym counter — hand-assembled functions (tests) may not
     maintain [next_reg]. *)
  let max_reg = ref (f.next_reg - 1) in
  let see r = if Reg.id r > !max_reg then max_reg := Reg.id r in
  List.iter see f.params;
  List.iter
    (fun (i : Rtl.inst) ->
      List.iter see (Rtl.defs i.kind);
      List.iter see (Rtl.uses i.kind))
    f.body;
  let n = Stdlib.max (!max_reg + 1) 1 in
  { regs = Array.make n 0L; ready = Array.make n 0 }

let reg_value fr r =
  let i = Reg.id r in
  if i < Array.length fr.regs then fr.regs.(i) else 0L

let operand_value fr = function
  | Rtl.Reg r -> reg_value fr r
  | Rtl.Imm v -> v

let set_reg fr r v ~done_at =
  let i = Reg.id r in
  if i >= Array.length fr.regs then trap "register r[%d] out of frame" i;
  fr.regs.(i) <- v;
  fr.ready.(i) <- done_at

let effective_addr fr (m : Rtl.mem) = Int64.add (reg_value fr m.base) m.disp

(* Resolve the address actually accessed, applying the aligned/unaligned
   contract; returns the address and any extra penalty cycles. *)
let resolve_access st fr (m : Rtl.mem) ~is_load =
  let addr = effective_addr fr m in
  let wbytes = Int64.of_int (Width.bytes m.width) in
  let legal =
    if is_load then Machine.legal_load st.machine m.width ~aligned:m.aligned
    else Machine.legal_store st.machine m.width ~aligned:m.aligned
  in
  if not legal then
    trap "illegal %s of width %a on %s"
      (if is_load then "load" else "store")
      Width.pp m.width st.machine.name;
  if m.aligned then
    if Int64.equal (Int64.rem addr wbytes) 0L then (addr, 0)
    else if
      List.exists (Width.equal m.width) st.machine.unaligned_widths
    then (addr, 2) (* the 68030 tolerates misalignment at a penalty *)
    else
      trap "misaligned %a access at 0x%Lx" Width.pp m.width addr
  else
    (* unaligned-access instruction: fetch the enclosing aligned word *)
    (Int64.mul (Int64.div addr wbytes) wbytes, 0)

let rec call st fname args =
  match Hashtbl.find_opt st.funcs fname with
  | None -> trap "undefined function %s" fname
  | Some f ->
    let body = Array.of_list f.body in
    let label_index = Hashtbl.create 16 in
    Array.iteri
      (fun i (inst : Rtl.inst) ->
        match inst.kind with
        | Rtl.Label l -> Hashtbl.replace label_index l i
        | _ -> ())
      body;
    let fr = frame_of f in
    List.iteri
      (fun i r ->
        match List.nth_opt args i with
        | Some v -> fr.regs.(Reg.id r) <- v
        | None -> trap "missing argument %d of %s" i fname)
      f.params;
    (* Stack frame for spill slots, when register allocation created one. *)
    let saved_sp = st.sp in
    if f.frame_bytes > 0 then begin
      st.sp <- Int64.sub st.sp (Int64.of_int ((f.frame_bytes + 15) / 16 * 16));
      match f.fp_reg with
      | Some fp -> set_reg fr fp st.sp ~done_at:0
      | None -> ()
    end;
    let v = exec st f fr body label_index 0 in
    st.sp <- saved_sp;
    v

and exec st (f : Func.t) fr body label_index pc =
  if pc >= Array.length body then trap "fell off the end of %s" f.name;
  let inst = body.(pc) in
  st.insts <- st.insts + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then trap "out of fuel in %s" f.name;
  let k = inst.kind in
  (* Instruction fetch, when modelled: every non-pseudo instruction
     occupies [bytes_per_inst] at a synthetic per-function address. *)
  (match (st.icache, k) with
  | Some _, (Rtl.Label _ | Rtl.Nop) | None, _ -> ()
  | Some ic, _ ->
    let base =
      match Hashtbl.find_opt st.ibase f.name with
      | Some b -> b
      | None ->
        let b = st.inext in
        Hashtbl.replace st.ibase f.name b;
        st.inext <-
          Int64.add b
            (Int64.of_int
               ((Array.length body + 16) * st.machine.bytes_per_inst));
        b
    in
    let addr =
      Int64.add base (Int64.of_int (pc * st.machine.bytes_per_inst))
    in
    match Cache.access ic addr with
    | `Hit -> ()
    | `Miss -> st.cycles <- st.cycles + st.machine.icache_miss_penalty);
  (* Stall until operands are ready. *)
  List.iter
    (fun r ->
      let i = Reg.id r in
      if i < Array.length fr.ready && fr.ready.(i) > st.cycles then
        st.cycles <- fr.ready.(i))
    (Rtl.uses k);
  let issue = Stdlib.max 1 (Machine.inst_cost st.machine k) in
  let latency = Machine.latency st.machine k in
  let next = pc + 1 in
  let continue_at pc' =
    st.cycles <- st.cycles + issue;
    exec st f fr body label_index pc'
  in
  let assign r v =
    set_reg fr r v ~done_at:(st.cycles + latency)
  in
  match k with
  | Rtl.Label l ->
    Hashtbl.replace st.labels l
      (1 + Option.value (Hashtbl.find_opt st.labels l) ~default:0);
    exec st f fr body label_index next (* free *)
  | Rtl.Nop -> exec st f fr body label_index next
  | Rtl.Move (d, s) ->
    assign d (operand_value fr s);
    continue_at next
  | Rtl.Binop (op, d, a, b) -> (
    match Rtl.eval_binop op (operand_value fr a) (operand_value fr b) with
    | v ->
      assign d v;
      continue_at next
    | exception Rtl.Division_by_zero -> trap "division by zero in %s" f.name)
  | Rtl.Unop (op, d, a) ->
    assign d (Rtl.eval_unop op (operand_value fr a));
    continue_at next
  | Rtl.Load { dst; src; sign } ->
    let addr, penalty = resolve_access st fr src ~is_load:true in
    let miss =
      match Cache.access st.dcache addr with `Hit -> 0 | `Miss ->
        st.machine.dcache.miss_penalty
    in
    st.loads <- st.loads + 1;
    let v = Memory.load st.memory ~addr ~width:src.width ~sign in
    set_reg fr dst v ~done_at:(st.cycles + latency + miss + penalty);
    continue_at next
  | Rtl.Store { src; dst } ->
    let addr, penalty = resolve_access st fr dst ~is_load:false in
    let miss =
      match Cache.access st.dcache addr with `Hit -> 0 | `Miss ->
        st.machine.dcache.miss_penalty
    in
    st.stores <- st.stores + 1;
    Memory.store st.memory ~addr ~width:dst.width (operand_value fr src);
    st.cycles <- st.cycles + miss + penalty;
    continue_at next
  | Rtl.Extract { dst; src; pos; width; sign } ->
    let v =
      Rtl.extract_bytes (reg_value fr src)
        ~pos:(Int64.to_int (Int64.logand (operand_value fr pos) 7L))
        ~width ~sign
    in
    assign dst v;
    continue_at next
  | Rtl.Insert { dst; src; pos; width } ->
    let v =
      Rtl.insert_bytes (reg_value fr dst)
        ~src:(operand_value fr src)
        ~pos:(Int64.to_int (Int64.logand (operand_value fr pos) 7L))
        ~width
    in
    assign dst v;
    continue_at next
  | Rtl.Jump l -> continue_at (Hashtbl.find label_index l)
  | Rtl.Branch { cmp; l; r; target } ->
    if Rtl.eval_cmp cmp (operand_value fr l) (operand_value fr r) then
      continue_at (Hashtbl.find label_index target)
    else continue_at next
  | Rtl.Call { dst; func; args } ->
    let vargs = List.map (operand_value fr) args in
    st.cycles <- st.cycles + issue;
    let v = call st func vargs in
    (match dst with
    | Some d -> set_reg fr d v ~done_at:st.cycles
    | None -> ());
    exec st f fr body label_index next
  | Rtl.Ret v ->
    st.cycles <- st.cycles + issue;
    (match v with Some op -> operand_value fr op | None -> 0L)

(* Every Label instruction in program order, with counts merged by
   label name, as {!Interp.metrics} lists them. *)
let label_counts (program : Interp.program) totals =
  List.concat_map
    (fun (f : Func.t) ->
      List.filter_map
        (fun (i : Rtl.inst) ->
          match i.kind with
          | Rtl.Label l ->
            Some (l, Option.value (Hashtbl.find_opt totals l) ~default:0)
          | _ -> None)
        f.body)
    program

(* Same signature and result as {!Interp.run}. It is untimed: every
   phase reads 0. *)
let run ~(machine : Machine.t) ~memory (program : Interp.program) ~entry
    ~args ?(fuel = 2_000_000_000) ?(model_icache = false) () =
  let funcs = Hashtbl.create 8 in
  List.iter (fun (f : Func.t) -> Hashtbl.replace funcs f.name f) program;
  let icache =
    if model_icache then
      Some
        (Cache.create
           { size_bytes = machine.icache_bytes; line_bytes = 32;
             miss_penalty = machine.icache_miss_penalty })
    else None
  in
  let st =
    {
      machine;
      memory;
      dcache = Cache.create machine.dcache;
      funcs;
      labels = Hashtbl.create 32;
      insts = 0;
      cycles = 0;
      loads = 0;
      stores = 0;
      fuel;
      sp = Int64.of_int (Memory.size memory);
      icache;
      ibase = Hashtbl.create 4;
      inext = 0L;
    }
  in
  let value = call st entry args in
  {
    Interp.value;
    metrics =
      {
        insts = st.insts;
        cycles = st.cycles;
        loads = st.loads;
        stores = st.stores;
        dcache_hits = Cache.hits st.dcache;
        dcache_misses = Cache.misses st.dcache;
        icache_misses =
          (match st.icache with Some ic -> Cache.misses ic | None -> 0);
        label_counts = label_counts program st.labels;
      };
    phases = [ ("decode", 0.); ("compile", 0.); ("execute", 0.) ];
  }
