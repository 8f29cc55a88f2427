open Mac_rtl

type dcache = { size_bytes : int; line_bytes : int; miss_penalty : int }

type t = {
  name : string;
  word : Width.t;
  load_widths : Width.t list;
  store_widths : Width.t list;
  unaligned_widths : Width.t list;
  has_native_insert : bool;
  extract_cost : Width.t -> int;
  insert_cost : Width.t -> int;
  alu_cost : Rtl.binop -> int;
  move_cost : int;
  load_cost : Width.t -> aligned:bool -> int;
  store_cost : Width.t -> aligned:bool -> int;
  load_latency : int;
  mul_latency : int;
  branch_cost : int;
  call_cost : int;
  icache_bytes : int;
  icache_miss_penalty : int;
  bytes_per_inst : int;
  dcache : dcache;
}

let mem_width_legal widths unaligned_widths w ~aligned =
  if aligned then List.exists (Width.equal w) widths
  else List.exists (Width.equal w) unaligned_widths

let legal_load m w ~aligned =
  mem_width_legal m.load_widths m.unaligned_widths w ~aligned

let legal_store m w ~aligned =
  mem_width_legal m.store_widths m.unaligned_widths w ~aligned

let widen_factor m narrow =
  let f = Width.bytes m.word / Width.bytes narrow in
  if f < 1 then 1 else f

let inst_cost m (k : Rtl.kind) =
  match k with
  | Rtl.Move _ -> m.move_cost
  | Rtl.Binop (op, _, _, _) -> m.alu_cost op
  | Rtl.Unop _ -> m.move_cost
  | Rtl.Load { src; _ } -> m.load_cost src.width ~aligned:src.aligned
  | Rtl.Store { dst; _ } -> m.store_cost dst.width ~aligned:dst.aligned
  | Rtl.Extract { width; _ } -> m.extract_cost width
  | Rtl.Insert { width; _ } -> m.insert_cost width
  | Rtl.Jump _ | Rtl.Branch _ -> m.branch_cost
  | Rtl.Label _ | Rtl.Nop -> 0
  | Rtl.Call _ -> m.call_cost
  | Rtl.Ret _ -> m.branch_cost

let latency m (k : Rtl.kind) =
  let base = inst_cost m k in
  match k with
  | Rtl.Load _ -> Stdlib.max base m.load_latency
  | Rtl.Binop ((Rtl.Mul | Rtl.Div | Rtl.Rem), _, _, _) ->
    Stdlib.max base m.mul_latency
  | _ -> Stdlib.max base 1

(* --- precomputed cost tables ------------------------------------------ *)

(* The cost fields above are closures (pattern matches over ops and
   widths); calling them per executed instruction is measurable in the
   interpreter's hot loop. [Costs.of_machine] evaluates every closure once
   into dense arrays so the pre-decoder (and anything else that prices
   instructions in bulk) does an array index instead. *)

let binop_index : Rtl.binop -> int = function
  | Rtl.Add -> 0
  | Rtl.Sub -> 1
  | Rtl.Mul -> 2
  | Rtl.Div -> 3
  | Rtl.Rem -> 4
  | Rtl.And -> 5
  | Rtl.Or -> 6
  | Rtl.Xor -> 7
  | Rtl.Shl -> 8
  | Rtl.Lshr -> 9
  | Rtl.Ashr -> 10
  | Rtl.Cmp c -> (
    11
    + match c with
      | Rtl.Eq -> 0 | Rtl.Ne -> 1 | Rtl.Lt -> 2 | Rtl.Le -> 3
      | Rtl.Gt -> 4 | Rtl.Ge -> 5 | Rtl.Ltu -> 6 | Rtl.Leu -> 7
      | Rtl.Gtu -> 8 | Rtl.Geu -> 9)

let all_binops =
  [ Rtl.Add; Rtl.Sub; Rtl.Mul; Rtl.Div; Rtl.Rem; Rtl.And; Rtl.Or; Rtl.Xor;
    Rtl.Shl; Rtl.Lshr; Rtl.Ashr ]
  @ List.map
      (fun c -> Rtl.Cmp c)
      [ Rtl.Eq; Rtl.Ne; Rtl.Lt; Rtl.Le; Rtl.Gt; Rtl.Ge; Rtl.Ltu; Rtl.Leu;
        Rtl.Gtu; Rtl.Geu ]

let width_index : Width.t -> int = function
  | Width.W8 -> 0
  | Width.W16 -> 1
  | Width.W32 -> 2
  | Width.W64 -> 3

module Costs = struct
  type machine = t

  type t = {
    alu : int array;  (** indexed by {!binop_index} *)
    alu_latency : int array;  (** issue cost or [mul_latency], per binop *)
    extract : int array;  (** indexed by {!width_index} *)
    insert : int array;
    load_aligned : int array;
    load_unaligned : int array;
    store_aligned : int array;
    store_unaligned : int array;
    move : int;
    branch : int;
    call : int;
    load_latency : int;
  }

  let of_machine (m : machine) =
    let by_binop f = Array.map f (Array.of_list all_binops) in
    let by_width f = Array.map f (Array.of_list Width.all) in
    let alu = by_binop m.alu_cost in
    {
      alu;
      alu_latency =
        by_binop (fun op ->
            let base = m.alu_cost op in
            match op with
            | Rtl.Mul | Rtl.Div | Rtl.Rem -> Stdlib.max base m.mul_latency
            | _ -> Stdlib.max base 1);
      extract = by_width m.extract_cost;
      insert = by_width m.insert_cost;
      load_aligned = by_width (fun w -> m.load_cost w ~aligned:true);
      load_unaligned = by_width (fun w -> m.load_cost w ~aligned:false);
      store_aligned = by_width (fun w -> m.store_cost w ~aligned:true);
      store_unaligned = by_width (fun w -> m.store_cost w ~aligned:false);
      move = m.move_cost;
      branch = m.branch_cost;
      call = m.call_cost;
      load_latency = m.load_latency;
    }
end

(* DEC Alpha (21064-class). No byte/shortword loads or stores; LDQ_U/STQ_U
   unaligned quadword access; EXTxx is one instruction, inserting a field
   takes INSxx + MSKxx + OR (three single-cycle instructions). Integer
   multiply is slow. *)
let alpha =
  {
    name = "alpha";
    word = Width.W64;
    load_widths = [ Width.W32; Width.W64 ];
    store_widths = [ Width.W32; Width.W64 ];
    unaligned_widths = [ Width.W64 ];
    has_native_insert = true;
    extract_cost = (fun _ -> 1);
    insert_cost = (fun _ -> 3);
    alu_cost =
      (function
      | Rtl.Mul -> 5 | Rtl.Div | Rtl.Rem -> 30 | _ -> 1);
    move_cost = 1;
    load_cost = (fun _ ~aligned:_ -> 1);
    store_cost = (fun _ ~aligned:_ -> 1);
    load_latency = 3;
    mul_latency = 6;
    branch_cost = 1;
    call_cost = 4;
    icache_bytes = 8 * 1024;
    icache_miss_penalty = 25;
    bytes_per_inst = 4;
    dcache = { size_bytes = 8 * 1024; line_bytes = 32; miss_penalty = 25 };
  }

(* Motorola 88100. Byte/half/word loads exist (ld.b/ld.h/ld), but every
   memory access goes through the single-ported data unit and its P-bus
   transaction, so a load or store effectively occupies two issue slots,
   while the bit-field unit gives single-cycle ext/extu — this is why
   replacing narrow loads with one wide load plus extracts pays. There is
   no insert instruction: building a word from narrow pieces takes a
   mask/shift/or sequence of ~4 instructions, which is what makes
   coalescing *stores* unprofitable on this machine. *)
let mc88100 =
  {
    name = "mc88100";
    word = Width.W32;
    load_widths = [ Width.W8; Width.W16; Width.W32 ];
    store_widths = [ Width.W8; Width.W16; Width.W32 ];
    unaligned_widths = [];
    has_native_insert = false;
    extract_cost = (fun _ -> 1);
    insert_cost = (fun _ -> 4);
    alu_cost =
      (function
      | Rtl.Mul -> 4 | Rtl.Div | Rtl.Rem -> 38 | _ -> 1);
    move_cost = 1;
    load_cost = (fun _ ~aligned:_ -> 2);
    store_cost = (fun _ ~aligned:_ -> 2);
    load_latency = 3;
    mul_latency = 4;
    branch_cost = 1;
    call_cost = 4;
    icache_bytes = 16 * 1024 (* 88200 CMMU cache *);
    icache_miss_penalty = 20;
    bytes_per_inst = 4;
    dcache = { size_bytes = 16 * 1024; line_bytes = 16; miss_penalty = 20 };
  }

(* Motorola 68030. CISC: every memory access costs several cycles
   regardless of width, so a narrow load is exactly as cheap as a wide one,
   while the bit-field instructions (BFEXTU/BFINS) the coalesced code needs
   are slower than just issuing the narrow accesses. Coalescing loses. *)
let mc68030 =
  {
    name = "mc68030";
    word = Width.W32;
    load_widths = [ Width.W8; Width.W16; Width.W32 ];
    store_widths = [ Width.W8; Width.W16; Width.W32 ];
    unaligned_widths = [ Width.W16; Width.W32 ]
    (* the 68030 tolerates misaligned operands (at a cycle penalty) *);
    has_native_insert = true;
    extract_cost = (fun _ -> 8);
    insert_cost = (fun _ -> 10);
    alu_cost =
      (function
      | Rtl.Mul -> 28 | Rtl.Div | Rtl.Rem -> 56 | _ -> 2);
    move_cost = 2;
    load_cost = (fun _ ~aligned -> if aligned then 4 else 6);
    store_cost = (fun _ ~aligned -> if aligned then 4 else 6);
    load_latency = 4;
    mul_latency = 28;
    branch_cost = 4;
    call_cost = 10;
    icache_bytes = 256;
    icache_miss_penalty = 8;
    bytes_per_inst = 4;
    dcache = { size_bytes = 256; line_bytes = 16; miss_penalty = 8 };
  }

(* Permissive machine for unit tests: everything legal, unit costs, so test
   expectations are easy to compute by hand. *)
let test32 =
  {
    name = "test32";
    word = Width.W32;
    load_widths = Width.all;
    store_widths = Width.all;
    unaligned_widths = Width.all;
    has_native_insert = true;
    extract_cost = (fun _ -> 1);
    insert_cost = (fun _ -> 1);
    alu_cost = (fun _ -> 1);
    move_cost = 1;
    load_cost = (fun _ ~aligned:_ -> 1);
    store_cost = (fun _ ~aligned:_ -> 1);
    load_latency = 1;
    mul_latency = 1;
    branch_cost = 1;
    call_cost = 1;
    icache_bytes = 64 * 1024;
    icache_miss_penalty = 0;
    bytes_per_inst = 4;
    dcache = { size_bytes = 64 * 1024; line_bytes = 32; miss_penalty = 0 };
  }

let all = [ alpha; mc88100; mc68030 ]

let by_name s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun m -> String.equal m.name s) (all @ [ test32 ])
