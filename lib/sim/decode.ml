open Mac_rtl
module Machine = Mac_machine.Machine

(* Pre-decoded operands: register ids instead of Reg.t, so the executor
   indexes the frame arrays directly. *)
type opnd = Oreg of int | Oimm of int64

(* A memory access with everything the dynamic address check does not
   depend on resolved at decode time: legality for this machine, the
   width in bytes, and whether the machine tolerates misalignment. *)
type access = {
  abase : int;  (* base register id *)
  adisp : int64;
  awidth : Width.t;
  wbytes : int64;
  aaligned : bool;
  alegal : bool;
  atolerate : bool;  (* misalignment proceeds at a penalty (MC68030) *)
}

type op =
  | Omove of int * opnd
  | Obinop of Rtl.binop * int * opnd * opnd
  | Ounop of Rtl.unop * int * opnd
  | Oload of { dst : int; acc : access; sign : Rtl.signedness }
  | Ostore of { src : opnd; acc : access }
  | Oextract of {
      dst : int;
      src : int;
      pos : opnd;
      width : Width.t;
      sign : Rtl.signedness;
    }
  | Oinsert of { dst : int; src : opnd; pos : opnd; width : Width.t }
  | Ojump of int  (* target pc: the index of the Label instruction *)
  | Obranch of { cmp : Rtl.cmp; l : opnd; r : opnd; target : int }
  | Olabel of int  (* dense visit-counter slot *)
  | Ocall of { dst : int (* -1 = none *); func : string; args : opnd array }
  | Oret of opnd option
  | Onop

type slot = {
  op : op;
  issue : int;  (* max 1 (Machine.inst_cost) *)
  latency : int;  (* Machine.latency *)
  reads : int array;  (* register ids consulted for operand stalls *)
  fetch : int64;  (* synthetic instruction-fetch address; -1 for pseudo *)
}

type fn = {
  fname : string;
  code : slot array;
  nregs : int;
  params : int array;
  frame_bytes : int;
  fp : int;  (* frame-pointer register id, -1 if none *)
  label_names : Rtl.label array;  (* dense slot -> label, program order *)
  counters : int array;  (* per-slot visit counts for this run *)
}

type t = {
  machine : Machine.t;
  costs : Machine.Costs.t;
  program : (string, Func.t) Hashtbl.t;
  cache : (string, fn) Hashtbl.t;
  mutable inext : int64;  (* next synthetic code base to hand out *)
  mutable decode_ns : int;  (* monotonic ns spent decoding, for --explain=sim *)
}

let create ~machine (program : Func.t list) =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (f : Func.t) -> Hashtbl.replace tbl f.name f) program;
  {
    machine;
    costs = Machine.Costs.of_machine machine;
    program = tbl;
    cache = Hashtbl.create 8;
    inext = 0L;
    decode_ns = 0;
  }

let opnd = function
  | Rtl.Reg r -> Oreg (Reg.id r)
  | Rtl.Imm v -> Oimm v

let access (m : Machine.t) (mem : Rtl.mem) ~is_load =
  {
    abase = Reg.id mem.base;
    adisp = mem.disp;
    awidth = mem.width;
    wbytes = Int64.of_int (Width.bytes mem.width);
    aaligned = mem.aligned;
    alegal =
      (if is_load then Machine.legal_load m mem.width ~aligned:mem.aligned
       else Machine.legal_store m mem.width ~aligned:mem.aligned);
    atolerate = List.exists (Width.equal mem.width) m.unaligned_widths;
  }

(* Same frame-sizing rule as the reference engine: registers actually
   mentioned, not just the function's gensym counter. *)
let frame_size (f : Func.t) =
  let max_reg = ref (f.next_reg - 1) in
  let see r = if Reg.id r > !max_reg then max_reg := Reg.id r in
  List.iter see f.params;
  List.iter
    (fun (i : Rtl.inst) ->
      List.iter see (Rtl.defs i.kind);
      List.iter see (Rtl.uses i.kind))
    f.body;
  Stdlib.max (!max_reg + 1) 1

let decode_fn t (f : Func.t) =
  let m = t.machine in
  let c = t.costs in
  let body = Array.of_list f.body in
  let n = Array.length body in
  (* pass 1: label -> pc (of the Label instruction itself, as the
     reference engine's jump table does) and dense counter slots *)
  let label_pc = Hashtbl.create 16 in
  let label_names = ref [] in
  let nlabels = ref 0 in
  let label_slot = Hashtbl.create 16 in
  Array.iteri
    (fun i (inst : Rtl.inst) ->
      match inst.kind with
      | Rtl.Label l ->
        Hashtbl.replace label_pc l i;
        if not (Hashtbl.mem label_slot l) then begin
          Hashtbl.add label_slot l !nlabels;
          label_names := l :: !label_names;
          incr nlabels
        end
      | _ -> ())
    body;
  let target l =
    match Hashtbl.find_opt label_pc l with Some i -> i | None -> -1
  in
  (* synthetic code layout, one base per function in decode order — the
     same first-call order the reference engine assigns bases in *)
  let base = t.inext in
  t.inext <-
    Int64.add base (Int64.of_int ((n + 16) * m.bytes_per_inst));
  let wi = Machine.width_index and bi = Machine.binop_index in
  let slot_of pc (inst : Rtl.inst) =
    let k = inst.kind in
    let op =
      match k with
      | Rtl.Move (d, s) -> Omove (Reg.id d, opnd s)
      | Rtl.Binop (o, d, a, b) -> Obinop (o, Reg.id d, opnd a, opnd b)
      | Rtl.Unop (o, d, a) -> Ounop (o, Reg.id d, opnd a)
      | Rtl.Load { dst; src; sign } ->
        Oload { dst = Reg.id dst; acc = access m src ~is_load:true; sign }
      | Rtl.Store { src; dst } ->
        Ostore { src = opnd src; acc = access m dst ~is_load:false }
      | Rtl.Extract { dst; src; pos; width; sign } ->
        Oextract
          { dst = Reg.id dst; src = Reg.id src; pos = opnd pos; width; sign }
      | Rtl.Insert { dst; src; pos; width } ->
        Oinsert { dst = Reg.id dst; src = opnd src; pos = opnd pos; width }
      | Rtl.Jump l -> Ojump (target l)
      | Rtl.Branch { cmp; l; r; target = tl } ->
        Obranch { cmp; l = opnd l; r = opnd r; target = target tl }
      | Rtl.Label l -> Olabel (Hashtbl.find label_slot l)
      | Rtl.Call { dst; func; args } ->
        Ocall
          {
            dst = (match dst with Some d -> Reg.id d | None -> -1);
            func;
            args = Array.of_list (List.map opnd args);
          }
      | Rtl.Ret v -> Oret (Option.map opnd v)
      | Rtl.Nop -> Onop
    in
    (* issue cost and latency from the precomputed tables; agrees with
       Machine.inst_cost/Machine.latency entry by entry *)
    let cost =
      match k with
      | Rtl.Move _ | Rtl.Unop _ -> c.move
      | Rtl.Binop (o, _, _, _) -> c.alu.(bi o)
      | Rtl.Load { src; _ } ->
        if src.aligned then c.load_aligned.(wi src.width)
        else c.load_unaligned.(wi src.width)
      | Rtl.Store { dst; _ } ->
        if dst.aligned then c.store_aligned.(wi dst.width)
        else c.store_unaligned.(wi dst.width)
      | Rtl.Extract { width; _ } -> c.extract.(wi width)
      | Rtl.Insert { width; _ } -> c.insert.(wi width)
      | Rtl.Jump _ | Rtl.Branch _ | Rtl.Ret _ -> c.branch
      | Rtl.Label _ | Rtl.Nop -> 0
      | Rtl.Call _ -> c.call
    in
    let latency =
      match k with
      | Rtl.Load _ -> Stdlib.max cost c.load_latency
      | Rtl.Binop (o, _, _, _) -> c.alu_latency.(bi o)
      | _ -> Stdlib.max cost 1
    in
    let reads = Array.of_list (List.map Reg.id (Rtl.uses k)) in
    let fetch =
      match k with
      | Rtl.Label _ | Rtl.Nop -> -1L
      | _ -> Int64.add base (Int64.of_int (pc * m.bytes_per_inst))
    in
    { op; issue = Stdlib.max 1 cost; latency; reads; fetch }
  in
  {
    fname = f.name;
    code = Array.mapi slot_of body;
    nregs = frame_size f;
    params = Array.of_list (List.map Reg.id f.params);
    frame_bytes = f.frame_bytes;
    fp = (match f.fp_reg with Some r -> Reg.id r | None -> -1);
    label_names = Array.of_list (List.rev !label_names);
    counters = Array.make !nlabels 0;
  }

let find t name =
  match Hashtbl.find_opt t.cache name with
  | Some fn -> Some fn
  | None -> (
    match Hashtbl.find_opt t.program name with
    | None -> None
    | Some f ->
      let t0 = Monotonic_clock.now () in
      let fn = decode_fn t f in
      t.decode_ns <-
        t.decode_ns + Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0);
      Hashtbl.replace t.cache name fn;
      Some fn)

let seconds t = float_of_int t.decode_ns *. 1e-9

(* Total executed-label counts across every function decoded (and hence
   possibly executed) in this run, merged by label name exactly as the
   reference engine's global hashtable does. *)
let label_totals t =
  let totals = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ fn ->
      Array.iteri
        (fun slot l ->
          let n = fn.counters.(slot) in
          if n > 0 then
            Hashtbl.replace totals l
              (n + Option.value (Hashtbl.find_opt totals l) ~default:0))
        fn.label_names)
    t.cache;
  totals
