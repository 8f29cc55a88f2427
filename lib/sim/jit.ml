open Mac_rtl
module Machine = Mac_machine.Machine

(* Superblock closure compilation: the simulator's execution engine.

   Each decoded function is compiled once per run into a chain of OCaml
   closures (threaded code): one closure per instruction — or per fused
   instruction *pair* — whose free variables are everything the decoded
   slot knows statically (operand register byte offsets, immediates,
   issue cost, latency, stall set, access geometry). Executing an
   instruction is then one indirect tail call with zero dispatch: no
   [code.(pc)] fetch, no constructor match, no operand match.

   The closure body itself is chosen at compile time from everything
   decode knows, so the run time pays only for what decode cannot know
   (operand values and addresses): there is one body per binop and per
   branch comparison, per operand shape (register/register or
   register/immediate; an immediate left operand is swapped to the
   right where the operation allows), and per stall-set size through
   [prelude], which leaves the body alone when the instruction reads no
   slow register and defines none (see {!Decode.slot}). Shapes no
   specialized body covers (an immediate store source, two immediate
   operands, an undefined branch target, calls and returns) take the
   generic emitter, which is exact for every instruction.

   The two per-instruction counters — the cycle clock and the remaining
   fuel — are threaded through the closure chain as unboxed arguments
   instead of living in the shared state record: a closure receives
   [cyc] and [fuel], updates them in registers, and passes them to its
   successor, syncing back to the state only at call/return boundaries.
   ([insts] needs no accounting at all: every instruction burns exactly
   one fuel, so it is the fuel spent.) Running out of fuel raises
   [Out_of_fuel], which the function's activation turns into the
   oracle's trap string, so no closure carries the function name.

   Control flow relies on the decode-time invariant that every jump and
   branch target is the pc of a [Olabel] instruction, so basic-block
   leaders are exactly the label pcs (plus the entry): a direct-mapped
   block cache — an array of compiled closures indexed by leader pc —
   lets a back edge chain straight to the loop head's closure without
   re-dispatch, while fall-through edges are direct closure references
   baked in at compile time (blocks are compiled bottom-up).

   Data traffic is kept off the minor heap. Register values live in a
   {!Regfile} whose unchecked accessors are compiler primitives
   (interface-declared externals), so a register transfer is a single
   unboxed 64-bit load/store at the use site regardless of cross-module
   inlining; closures address the file by byte offsets folded in at
   compile time. The memory fast path reads and writes simulated memory
   through one unchecked 64-bit access: for a width-[w]
   load inside the guard ([eai >= 8] and in-bounds), the value occupies
   the top [w] bytes of the little-endian word ending at the access's
   last byte, so one read plus one compile-time shift replaces per-width
   dispatch — and choosing an arithmetic versus logical shift is exactly
   the sign extension. Sub-word stores are a read-modify-write of the
   same word with a compile-time mask. (This identifies simulated-memory
   bytes with host byte order, so the fast path is gated on a
   little-endian host; a big-endian host takes the generic byte-by-byte
   path on every access — slower but bit-identical.)

   Bit-identity with the test oracle is non-negotiable: every
   closure performs exactly the bookkeeping sequence of the decoded
   interpreter — instruction count, fuel check (a trap mid-superblock
   must fire between the two halves of a fused pair, never before or
   after both), operand stalls, issue/latency/miss accounting, and the
   exact trap and fault strings. Fused pairs write the first
   instruction's result to the register file before the second half
   runs, so the architectural state at any trap point is identical to
   the unfused execution; fusion only forwards the value in a local.
   Stall and ready-time bookkeeping is not architectural state (a trap
   ends the run and discards the frame), so [prelude] may do it before
   the body's fuel check. *)

exception Trap of string

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

(* Raised by a closure whose fuel runs out; [exec_cfn] names the
   function in the trap. *)
exception Out_of_fuel

(* Unchecked 64-bit access to simulated memory (fast path only, which
   is gated on a little-endian host). Compiler primitives, so they
   compile to single unboxed loads/stores inside the closures. *)
external mget64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external mset64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type frame = { regs : Regfile.t; ready : int array }

(* A compiled instruction: [code fr cyc fuel] executes from this point
   to the function's return, with the cycle clock and remaining fuel
   threaded as arguments. *)
type code = frame -> int -> int -> int64

type state = {
  machine : Machine.t;
  memory : Memory.t;
  dcache : Cache.t;
  icache : Cache.t option;
  decode : Decode.t;
  compiled : (string, cfn) Hashtbl.t;
  fuel0 : int;
  mutable cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable fuel : int;
  mutable sp : int64;
  mutable compile_ns : int;
}

and cfn = { jfn : Decode.fn; jentry : code }

(* ---------------- inlined pieces of every closure body ---------------- *)

let[@inline] tick fuel =
  let fuel = fuel - 1 in
  if fuel <= 0 then raise Out_of_fuel;
  fuel

let[@inline] get (fr : frame) o8 = Regfile.uget fr.regs o8
let[@inline] put (fr : frame) o8 v = Regfile.uset fr.regs o8 v

(* The tail of an instruction that defines register byte offset [d8]
   with [v] and costs nothing beyond its issue ([cyc] includes it). *)
let[@inline] def (next : code) fr d8 v cyc fuel =
  let fuel = tick fuel in
  put fr d8 v;
  next fr cyc fuel

(* The tail of a conditional branch: [cyc] includes the issue. *)
let[@inline] branch (bcache : code array) target (next : code) fr cond cyc
    fuel =
  let fuel = tick fuel in
  if cond then (Array.unsafe_get bcache target) fr cyc fuel
  else next fr cyc fuel

let[@inline] b2i cond = Int64.of_int (Bool.to_int cond)

(* Unsigned order is signed order on operands biased by [min_int]. *)
let[@inline] bias v = Int64.logxor v 0x8000000000000000L

(* Byte position [p] (mod 8) as a bit shift. *)
let[@inline] bit_pos p = (Int64.to_int p land 7) lsl 3

let[@inline] sext_at v sh sl =
  Int64.shift_right (Int64.shift_left (Int64.shift_right_logical v sh) sl) sl

let[@inline] zext_at v sh wmask =
  Int64.logand (Int64.shift_right_logical v sh) wmask

let[@inline] insert_at dv sv sh wmask =
  Int64.logor
    (Int64.logand dv (Int64.logxor (Int64.shift_left wmask sh) (-1L)))
    (Int64.shift_left (Int64.logand sv wmask) sh)

let[@inline] stall1 (fr : frame) r cyc =
  let t = Array.unsafe_get fr.ready r in
  if t > cyc then t else cyc

let rec stall_rest (ready : int array) (reads : int array) i n cyc =
  if i >= n then cyc
  else
    let t = Array.unsafe_get ready (Array.unsafe_get reads i) in
    stall_rest ready reads (i + 1) n (if t > cyc then t else cyc)

(* The operand stalls of [s] and the ready time of its def [d] (-1 when
   the body records it, as a load does, or there is none), in front of
   a [body] that does neither. Specialized on the stall-set size; an
   instruction that reads no slow register and defines none — most of
   them — runs its body alone. *)
let prelude (s : Decode.slot) d (body : code) : code =
  let lat = s.Decode.latency and reads = s.Decode.reads in
  let d = if s.Decode.sets_ready then d else -1 in
  match (Array.length reads, d >= 0) with
  | 0, false -> body
  | 0, true ->
    fun fr cyc fuel ->
      Array.unsafe_set fr.ready d (cyc + lat);
      body fr cyc fuel
  | 1, false ->
    let r0 = reads.(0) in
    fun fr cyc fuel -> body fr (stall1 fr r0 cyc) fuel
  | 1, true ->
    let r0 = reads.(0) in
    fun fr cyc fuel ->
      let cyc = stall1 fr r0 cyc in
      Array.unsafe_set fr.ready d (cyc + lat);
      body fr cyc fuel
  | 2, false ->
    let r0 = reads.(0) and r1 = reads.(1) in
    fun fr cyc fuel -> body fr (stall1 fr r1 (stall1 fr r0 cyc)) fuel
  | n, _ ->
    fun fr cyc fuel ->
      let cyc = stall_rest fr.ready reads 0 n cyc in
      if d >= 0 then Array.unsafe_set fr.ready d (cyc + lat);
      body fr cyc fuel

(* [l c r] as [r (swap c) l]. *)
let swap_cmp = function
  | Rtl.Eq -> Rtl.Eq
  | Rtl.Ne -> Rtl.Ne
  | Rtl.Lt -> Rtl.Gt
  | Rtl.Le -> Rtl.Ge
  | Rtl.Gt -> Rtl.Lt
  | Rtl.Ge -> Rtl.Le
  | Rtl.Ltu -> Rtl.Gtu
  | Rtl.Leu -> Rtl.Geu
  | Rtl.Gtu -> Rtl.Ltu
  | Rtl.Geu -> Rtl.Leu

(* A memory access's compile-time geometry for the inlined fast path. *)
type geo = {
  acc : Decode.access;
  sign : Rtl.signedness;
  signed : bool;
  wb : int;  (* width in bytes *)
  wmask : int;  (* wb - 1 *)
  lnotw : int;  (* lnot (wb - 1): the enclosing aligned word *)
  aligned : bool;
  sshift : int;  (* 64 - 8 wb: the value's place in its 8-byte word *)
  lowmask : int64;  (* the bytes below it, which a sub-word store keeps *)
}

let geo (acc : Decode.access) sign =
  let wb = Int64.to_int acc.Decode.wbytes in
  let sshift = 64 - (8 * wb) in
  {
    acc;
    sign;
    signed = sign = Rtl.Signed;
    wb;
    wmask = wb - 1;
    lnotw = lnot (wb - 1);
    aligned = acc.Decode.aaligned;
    sshift;
    lowmask = Int64.of_int ((1 lsl sshift) - 1);
  }

(* Generic (slow-path) memory access: exact replica of the decoded
   interpreter's resolve + cache + memory sequence, used for wild
   addresses, misalignment, odd cache geometries, illegal widths and
   out-of-bounds faults so every trap/fault string — and the cache
   counter mutation order — is identical. *)
let resolve st (acc : Decode.access) addr ~is_load =
  if not acc.alegal then
    trap "illegal %s of width %a on %s"
      (if is_load then "load" else "store")
      Width.pp acc.awidth st.machine.name;
  if acc.aaligned then
    if Int64.equal (Int64.rem addr acc.wbytes) 0L then (addr, 0)
    else if acc.atolerate then (addr, 2)
    else trap "misaligned %a access at 0x%Lx" Width.pp acc.awidth addr
  else (Int64.mul (Int64.div addr acc.wbytes) acc.wbytes, 0)

let slow_load st (acc : Decode.access) addr ~sign =
  let addr, penalty = resolve st acc addr ~is_load:true in
  let miss =
    match Cache.access st.dcache addr with
    | `Hit -> 0
    | `Miss -> st.machine.dcache.miss_penalty
  in
  st.loads <- st.loads + 1;
  let v = Memory.load st.memory ~addr ~width:acc.awidth ~sign in
  (v, miss + penalty)

let slow_store st (acc : Decode.access) addr v =
  let addr, penalty = resolve st acc addr ~is_load:false in
  let miss =
    match Cache.access st.dcache addr with
    | `Hit -> 0
    | `Miss -> st.machine.dcache.miss_penalty
  in
  st.stores <- st.stores + 1;
  Memory.store st.memory ~addr ~width:acc.awidth v;
  miss + penalty

(* The second half of a fused load pair, read off the decoded slot. *)
type unpack =
  | Ext of { signed : bool; sh : int }  (** sext/zext by [sh] bits *)
  | Xi of { signed : bool; sh : int; sl : int; wmask : int64 }
      (** extract at a constant byte position *)
  | Xr of { signed : bool; p8 : int; sl : int; wmask : int64 }
      (** extract at the byte position in register [p8] *)

let rec jcall st fname args =
  match find_cfn st fname with
  | None -> trap "undefined function %s" fname
  | Some c -> exec_cfn st c args

and find_cfn st name =
  match Hashtbl.find_opt st.compiled name with
  | Some c -> Some c
  | None -> (
    match Decode.find st.decode name with
    | None -> None
    | Some fn ->
      let t0 = Monotonic_clock.now () in
      let entry = compile_fn st fn in
      st.compile_ns <-
        st.compile_ns + Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0);
      let c = { jfn = fn; jentry = entry } in
      Hashtbl.replace st.compiled name c;
      Some c)

and exec_cfn st c args =
  let fn = c.jfn in
  let regs = Regfile.create fn.Decode.nregs in
  let ready = Array.make fn.Decode.nregs 0 in
  let nparams = Array.length fn.Decode.params in
  let rec bind i args =
    if i < nparams then
      match args with
      | [] -> trap "missing argument %d of %s" i fn.Decode.fname
      | v :: rest ->
        Regfile.set regs fn.Decode.params.(i) v;
        bind (i + 1) rest
  in
  bind 0 args;
  let saved_sp = st.sp in
  if fn.Decode.frame_bytes > 0 then begin
    st.sp <-
      Int64.sub st.sp
        (Int64.of_int ((fn.Decode.frame_bytes + 15) / 16 * 16));
    if fn.Decode.fp >= 0 then Regfile.set regs fn.Decode.fp st.sp
  end;
  let fr = { regs; ready } in
  let v =
    try c.jentry fr st.cycles st.fuel with
    (* the generic closures divide through [Rtl.eval_binop], the
       specialized ones with the [Int64] primitives *)
    | Rtl.Division_by_zero | Division_by_zero ->
      trap "division by zero in %s" fn.Decode.fname
    | Out_of_fuel -> trap "out of fuel in %s" fn.Decode.fname
  in
  st.sp <- saved_sp;
  v

(* ================================================================== *)
(* The compiler. One pass, bottom-up: blocks are compiled from the last
   instruction towards the entry so that a fall-through edge can capture
   the successor closure directly; branch/jump targets go through the
   block cache array (filled for every label pc before execution starts,
   since all leaders are compiled eagerly here). *)

and compile_fn st (fn : Decode.fn) : code =
  let code = fn.code in
  let len = Array.length code in
  let fname = fn.Decode.fname in
  let m = st.machine in
  let dc = st.dcache in
  let dlines = dc.Cache.lines in
  let lshift = dc.Cache.line_shift in
  let smask = dc.Cache.set_mask in
  let dpen = m.dcache.miss_penalty in
  let mb = Memory.bytes st.memory in
  let msize = Memory.size st.memory in
  let counters = fn.Decode.counters in
  let geom = lshift >= 0 in
  let le = not Sys.big_endian in
  let fell_off : code = fun _ _ _ -> trap "fell off the end of %s" fname in
  let bcache = Array.make (len + 1) fell_off in
  (* Memory fast path eligibility is static: legal access on a
     power-of-two cache. The dynamic guard (little-endian host,
     non-negative, in-bounds, aligned address) selects between the
     inlined body and the generic slow path at run time. *)
  let fast_mem (acc : Decode.access) = acc.Decode.alegal && geom in

  (* Inlined d-cache access: the same index computation and counter
     updates as [Cache.access] on a power-of-two geometry with a
     non-negative address — the [Cache] record is the metrics oracle. *)
  let[@inline] dcache_miss eai =
    let line = eai lsr lshift in
    let set = line land smask in
    if Array.unsafe_get dlines set = line then begin
      dc.Cache.hits <- dc.Cache.hits + 1;
      0
    end
    else begin
      Array.unsafe_set dlines set line;
      dc.Cache.misses <- dc.Cache.misses + 1;
      dpen
    end
  in
  let[@inline] in_fast (g : geo) ai eai =
    le && ai >= 0 && eai >= 8
    && eai + g.wb <= msize
    && ((not g.aligned) || ai land g.wmask = 0)
  in
  (* A complete load of [addr] into register [dst] (byte offset [dst8])
     issued at [cyc]: value, ready time, counters. A consumer reads the
     value back from the file: returning it from both paths would box it
     on the fast one. *)
  let[@inline] load_to (fr : frame) (g : geo) dst8 dst lat cyc addr =
    let ai = Int64.to_int addr in
    let eai = if g.aligned then ai else ai land g.lnotw in
    if in_fast g ai eai then begin
      let miss = dcache_miss eai in
      st.loads <- st.loads + 1;
      let v64 = mget64 mb (eai + g.wb - 8) in
      put fr dst8
        (if g.signed then Int64.shift_right v64 g.sshift
         else Int64.shift_right_logical v64 g.sshift);
      Array.unsafe_set fr.ready dst (cyc + lat + miss)
    end
    else begin
      let v, extra = slow_load st g.acc addr ~sign:g.sign in
      put fr dst8 v;
      Array.unsafe_set fr.ready dst (cyc + lat + extra)
    end
  in
  (* A complete store of [v] to [addr]; returns its extra cycles. *)
  let[@inline] store_to (g : geo) addr v =
    let ai = Int64.to_int addr in
    let eai = if g.aligned then ai else ai land g.lnotw in
    if in_fast g ai eai then begin
      let miss = dcache_miss eai in
      st.stores <- st.stores + 1;
      if g.wb = 8 then mset64 mb eai v
      else begin
        let woff = eai + g.wb - 8 in
        mset64 mb woff
          (Int64.logor
             (Int64.logand (mget64 mb woff) g.lowmask)
             (Int64.shift_left v g.sshift))
      end;
      miss
    end
    else slow_store st g.acc addr v
  in

  let rec chain pc : code =
    if pc >= len then fell_off
    else
      match code.(pc).Decode.op with
      | Decode.Olabel _ -> Array.unsafe_get bcache pc
      | _ -> at pc

  and at pc : code =
    let s = code.(pc) in
    let next = lazy (chain (pc + 1)) in
    match st.icache with
    | Some _ -> emit_generic s next
    | None -> (
      match fuse pc s with
      | Some c -> c
      | None -> (
        match emit_plain s next with
        | Some c -> c
        | None -> emit_generic s next))

  (* ---------------- superinstruction fusion ---------------------- *)
  (* A pair (pc, pc+1) inside one block — pc+1 is never a label, hence
     never a branch target — is fused when the second instruction's key
     operand is exactly the first's result and the second's stall set
     is known at compile time to be empty (or, after a load, to be the
     loaded register alone). The fused closure still performs BOTH
     instructions' complete bookkeeping (counts, fuel, stalls, costs) and
     still writes the first result to the register file before the
     second half, so traps between the halves observe identical state;
     the value is merely forwarded in a local. A load that can fuse with
     its consumer does so in preference to fusing with its address
     computation: the consumer is the one that would stall. *)
  and fuse pc (s : Decode.slot) : code option =
    if pc + 1 >= len then None
    else
      let s2 = code.(pc + 1) in
      let no_stall2 = Array.length s2.Decode.reads = 0 in
      match (s.Decode.op, s2.Decode.op) with
      | ( Decode.Obinop (((Rtl.Add | Rtl.Sub) as op), t, a, b),
          Decode.Oload { dst; acc; sign } )
        when acc.Decode.abase = t && fast_mem acc && no_stall2
             && Option.is_none (load_pair (pc + 1)) ->
        add_load pc s s2 op t a b dst (geo acc sign)
      | Decode.Oload { dst = t; acc; sign }, _ when fast_mem acc -> (
        match load_pair pc with
        | Some u -> Some (load_unpack pc s s2 t (geo acc sign) u)
        | None -> None)
      | ( Decode.Oinsert
            { dst = t; src = Decode.Oreg sr; pos = Decode.Oimm p; width },
          Decode.Ostore { src = Decode.Oreg v; acc } )
        when v = t && fast_mem acc && no_stall2 ->
        Some (insert_store pc s s2 t sr p width (geo acc Rtl.Unsigned))
      | _ -> None

  (* The unpacking half of a load at [pc] and its consumer at [pc+1],
     which reads the loaded register and stalls on nothing else. *)
  and load_pair pc : unpack option =
    if pc + 1 >= len then None
    else
      let s2 = code.(pc + 1) in
      match code.(pc).Decode.op with
      | Decode.Oload { dst = t; acc; _ }
        when fast_mem acc && s2.Decode.reads = [| t |] -> (
        match s2.Decode.op with
        | Decode.Ounop (Rtl.Sext w, _, Decode.Oreg u) when u = t ->
          Some (Ext { signed = true; sh = 64 - Width.bits w })
        | Decode.Ounop (Rtl.Zext w, _, Decode.Oreg u) when u = t ->
          Some (Ext { signed = false; sh = 64 - Width.bits w })
        | Decode.Oextract { src; pos; width; sign; _ } when src = t -> (
          let signed = sign = Rtl.Signed
          and sl = 64 - Width.bits width
          and wmask = Width.mask width in
          match pos with
          | Decode.Oimm p -> Some (Xi { signed; sh = bit_pos p; sl; wmask })
          | Decode.Oreg pr -> Some (Xr { signed; p8 = pr lsl 3; sl; wmask }))
        | _ -> None)
      | _ -> None

  (* ---------------- single-instruction emitters ------------------ *)
  (* A body specialized on the operation and operand shape, behind its
     [prelude]; [None] for the shapes left to [emit_generic]. *)
  and emit_plain (s : Decode.slot) next : code option =
    let i = s.Decode.issue in
    match s.Decode.op with
    | Decode.Olabel slot ->
      let next = Lazy.force next in
      Some
        (fun fr cyc fuel ->
          let fuel = tick fuel in
          Array.unsafe_set counters slot (Array.unsafe_get counters slot + 1);
          next fr cyc fuel)
    | Decode.Onop ->
      let next = Lazy.force next in
      Some (fun fr cyc fuel -> next fr cyc (tick fuel))
    | Decode.Omove (d, src) ->
      let next = Lazy.force next and d8 = d lsl 3 in
      Some
        (prelude s d
           (match src with
           | Decode.Oreg r ->
             let r8 = r lsl 3 in
             fun fr c f -> def next fr d8 (get fr r8) (c + i) f
           | Decode.Oimm v -> fun fr c f -> def next fr d8 v (c + i) f))
    | Decode.Obinop (op, d, a, b) ->
      Option.map (prelude s d) (binop s (Lazy.force next) op d a b)
    | Decode.Ounop (op, d, Decode.Oreg r) ->
      let next = Lazy.force next and d8 = d lsl 3 and r8 = r lsl 3 in
      Some
        (prelude s d
           (match op with
           | Rtl.Neg ->
             fun fr c f -> def next fr d8 (Int64.neg (get fr r8)) (c + i) f
           | Rtl.Not ->
             fun fr c f ->
               def next fr d8 (Int64.logxor (get fr r8) (-1L)) (c + i) f
           | Rtl.Sext w ->
             let sh = 64 - Width.bits w in
             fun fr c f -> def next fr d8 (sext_at (get fr r8) 0 sh) (c + i) f
           | Rtl.Zext w ->
             let sh = 64 - Width.bits w in
             fun fr c f ->
               def next fr d8
                 (Int64.shift_right_logical
                    (Int64.shift_left (get fr r8) sh)
                    sh)
                 (c + i) f))
    | Decode.Oload { dst; acc; sign } when fast_mem acc ->
      let next = Lazy.force next and g = geo acc sign in
      let ab8 = acc.Decode.abase lsl 3 and adisp = acc.Decode.adisp in
      let dst8 = dst lsl 3 and lat = s.Decode.latency in
      Some
        (prelude s (-1) (fun fr cyc fuel ->
             let fuel = tick fuel in
             load_to fr g dst8 dst lat cyc (Int64.add (get fr ab8) adisp);
             next fr (cyc + i) fuel))
    | Decode.Ostore { src = Decode.Oreg r; acc } when fast_mem acc ->
      let next = Lazy.force next and g = geo acc Rtl.Unsigned in
      let ab8 = acc.Decode.abase lsl 3 and adisp = acc.Decode.adisp in
      let r8 = r lsl 3 in
      Some
        (prelude s (-1) (fun fr cyc fuel ->
             let fuel = tick fuel in
             let extra =
               store_to g (Int64.add (get fr ab8) adisp) (get fr r8)
             in
             next fr (cyc + extra + i) fuel))
    | Decode.Oextract { dst; src; pos; width; sign } ->
      let next = Lazy.force next in
      let d8 = dst lsl 3 and r8 = src lsl 3 in
      let sl = 64 - Width.bits width and wm = Width.mask width in
      Some
        (prelude s dst
           (match (pos, sign) with
           | Decode.Oimm p, Rtl.Signed ->
             let sh = bit_pos p in
             fun fr c f -> def next fr d8 (sext_at (get fr r8) sh sl) (c + i) f
           | Decode.Oimm p, Rtl.Unsigned ->
             let sh = bit_pos p in
             fun fr c f -> def next fr d8 (zext_at (get fr r8) sh wm) (c + i) f
           | Decode.Oreg pr, Rtl.Signed ->
             let p8 = pr lsl 3 in
             fun fr c f ->
               def next fr d8
                 (sext_at (get fr r8) (bit_pos (get fr p8)) sl)
                 (c + i) f
           | Decode.Oreg pr, Rtl.Unsigned ->
             let p8 = pr lsl 3 in
             fun fr c f ->
               def next fr d8
                 (zext_at (get fr r8) (bit_pos (get fr p8)) wm)
                 (c + i) f))
    | Decode.Oinsert { dst; src = Decode.Oreg r; pos; width } ->
      let next = Lazy.force next in
      let d8 = dst lsl 3 and r8 = r lsl 3 and wm = Width.mask width in
      Some
        (prelude s dst
           (match pos with
           | Decode.Oimm p ->
             let sh = bit_pos p in
             fun fr c f ->
               def next fr d8
                 (insert_at (get fr d8) (get fr r8) sh wm)
                 (c + i) f
           | Decode.Oreg pr ->
             let p8 = pr lsl 3 in
             fun fr c f ->
               def next fr d8
                 (insert_at (get fr d8) (get fr r8) (bit_pos (get fr p8)) wm)
                 (c + i) f))
    | Decode.Ojump t when t >= 0 ->
      Some
        (fun fr cyc fuel ->
          let fuel = tick fuel in
          (Array.unsafe_get bcache t) fr (cyc + i) fuel)
    | Decode.Obranch { cmp; l; r; target } when target >= 0 ->
      Option.map (prelude s (-1))
        (cond_branch s (Lazy.force next) cmp l r target)
    | _ -> None

  (* One body per binop and operand shape; an immediate left operand is
     moved right where the operation commutes (or its comparison
     swaps), and [a - imm] is [a + (-imm)]. *)
  and binop (s : Decode.slot) next op d a b : code option =
    let i = s.Decode.issue and d8 = d lsl 3 in
    match (a, b) with
    | Decode.Oreg ar, Decode.Oreg br -> (
      let a8 = ar lsl 3 and b8 = br lsl 3 in
      let cmp_rr cm a8 b8 : code =
        match cm with
        | Rtl.Eq ->
          fun fr c f ->
            def next fr d8 (b2i (get fr a8 = get fr b8)) (c + i) f
        | Rtl.Ne ->
          fun fr c f ->
            def next fr d8 (b2i (get fr a8 <> get fr b8)) (c + i) f
        | Rtl.Lt ->
          fun fr c f ->
            def next fr d8 (b2i (get fr a8 < get fr b8)) (c + i) f
        | Rtl.Le ->
          fun fr c f ->
            def next fr d8 (b2i (get fr a8 <= get fr b8)) (c + i) f
        | Rtl.Ltu ->
          fun fr c f ->
            def next fr d8 (b2i (bias (get fr a8) < bias (get fr b8))) (c + i) f
        | Rtl.Leu ->
          fun fr c f ->
            def next fr d8
              (b2i (bias (get fr a8) <= bias (get fr b8)))
              (c + i) f
        | Rtl.Gt | Rtl.Ge | Rtl.Gtu | Rtl.Geu -> assert false
      in
      Some
        (match op with
        | Rtl.Add ->
          fun fr c f ->
            def next fr d8 (Int64.add (get fr a8) (get fr b8)) (c + i) f
        | Rtl.Sub ->
          fun fr c f ->
            def next fr d8 (Int64.sub (get fr a8) (get fr b8)) (c + i) f
        | Rtl.Mul ->
          fun fr c f ->
            def next fr d8 (Int64.mul (get fr a8) (get fr b8)) (c + i) f
        | Rtl.Div ->
          fun fr c f ->
            let f = tick f in
            put fr d8 (Int64.div (get fr a8) (get fr b8));
            next fr (c + i) f
        | Rtl.Rem ->
          fun fr c f ->
            let f = tick f in
            put fr d8 (Int64.rem (get fr a8) (get fr b8));
            next fr (c + i) f
        | Rtl.And ->
          fun fr c f ->
            def next fr d8 (Int64.logand (get fr a8) (get fr b8)) (c + i) f
        | Rtl.Or ->
          fun fr c f ->
            def next fr d8 (Int64.logor (get fr a8) (get fr b8)) (c + i) f
        | Rtl.Xor ->
          fun fr c f ->
            def next fr d8 (Int64.logxor (get fr a8) (get fr b8)) (c + i) f
        | Rtl.Shl ->
          fun fr c f ->
            def next fr d8
              (Int64.shift_left (get fr a8) (Int64.to_int (get fr b8) land 63))
              (c + i) f
        | Rtl.Lshr ->
          fun fr c f ->
            def next fr d8
              (Int64.shift_right_logical (get fr a8)
                 (Int64.to_int (get fr b8) land 63))
              (c + i) f
        | Rtl.Ashr ->
          fun fr c f ->
            def next fr d8
              (Int64.shift_right (get fr a8) (Int64.to_int (get fr b8) land 63))
              (c + i) f
        | Rtl.Cmp ((Rtl.Gt | Rtl.Ge | Rtl.Gtu | Rtl.Geu) as c) ->
          cmp_rr (swap_cmp c) b8 a8
        | Rtl.Cmp c -> cmp_rr c a8 b8))
    | Decode.Oreg ar, Decode.Oimm v -> Some (binop_ri i next op d8 (ar lsl 3) v)
    | Decode.Oimm v, Decode.Oreg br -> (
      match op with
      | Rtl.Add | Rtl.Mul | Rtl.And | Rtl.Or | Rtl.Xor ->
        Some (binop_ri i next op d8 (br lsl 3) v)
      | Rtl.Cmp c ->
        Some (binop_ri i next (Rtl.Cmp (swap_cmp c)) d8 (br lsl 3) v)
      | _ -> None)
    | Decode.Oimm _, Decode.Oimm _ -> None

  and binop_ri i next op d8 a8 v : code =
    let sh = Int64.to_int v land 63 and bv = bias v in
    match op with
    | Rtl.Add ->
      fun fr c f ->
        def next fr d8 (Int64.add (get fr a8) v) (c + i) f
    | Rtl.Sub ->
      let v = Int64.neg v in
      fun fr c f -> def next fr d8 (Int64.add (get fr a8) v) (c + i) f
    | Rtl.Mul ->
      fun fr c f ->
        def next fr d8 (Int64.mul (get fr a8) v) (c + i) f
    | Rtl.Div ->
      fun fr c f ->
        let f = tick f in
        put fr d8 (Int64.div (get fr a8) v);
        next fr (c + i) f
    | Rtl.Rem ->
      fun fr c f ->
        let f = tick f in
        put fr d8 (Int64.rem (get fr a8) v);
        next fr (c + i) f
    | Rtl.And ->
      fun fr c f ->
        def next fr d8 (Int64.logand (get fr a8) v) (c + i) f
    | Rtl.Or ->
      fun fr c f ->
        def next fr d8 (Int64.logor (get fr a8) v) (c + i) f
    | Rtl.Xor ->
      fun fr c f ->
        def next fr d8 (Int64.logxor (get fr a8) v) (c + i) f
    | Rtl.Shl ->
      fun fr c f -> def next fr d8 (Int64.shift_left (get fr a8) sh) (c + i) f
    | Rtl.Lshr ->
      fun fr c f ->
        def next fr d8 (Int64.shift_right_logical (get fr a8) sh) (c + i) f
    | Rtl.Ashr ->
      fun fr c f -> def next fr d8 (Int64.shift_right (get fr a8) sh) (c + i) f
    | Rtl.Cmp Rtl.Eq ->
      fun fr c f ->
        def next fr d8 (b2i (get fr a8 = v)) (c + i) f
    | Rtl.Cmp Rtl.Ne ->
      fun fr c f ->
        def next fr d8 (b2i (get fr a8 <> v)) (c + i) f
    | Rtl.Cmp Rtl.Lt ->
      fun fr c f ->
        def next fr d8 (b2i (get fr a8 < v)) (c + i) f
    | Rtl.Cmp Rtl.Le ->
      fun fr c f ->
        def next fr d8 (b2i (get fr a8 <= v)) (c + i) f
    | Rtl.Cmp Rtl.Gt ->
      fun fr c f ->
        def next fr d8 (b2i (get fr a8 > v)) (c + i) f
    | Rtl.Cmp Rtl.Ge ->
      fun fr c f ->
        def next fr d8 (b2i (get fr a8 >= v)) (c + i) f
    | Rtl.Cmp Rtl.Ltu ->
      fun fr c f -> def next fr d8 (b2i (bias (get fr a8) < bv)) (c + i) f
    | Rtl.Cmp Rtl.Leu ->
      fun fr c f -> def next fr d8 (b2i (bias (get fr a8) <= bv)) (c + i) f
    | Rtl.Cmp Rtl.Gtu ->
      fun fr c f -> def next fr d8 (b2i (bias (get fr a8) > bv)) (c + i) f
    | Rtl.Cmp Rtl.Geu ->
      fun fr c f -> def next fr d8 (b2i (bias (get fr a8) >= bv)) (c + i) f

  (* One body per comparison and operand shape, as for [binop]. *)
  and cond_branch (s : Decode.slot) next cmp l r target : code option =
    let i = s.Decode.issue in
    match (l, r) with
    | Decode.Oreg lr, Decode.Oreg rr ->
      let rr_ cm l8 r8 : code =
        match cm with
        | Rtl.Eq ->
          fun fr c f ->
            branch bcache target next fr (get fr l8 = get fr r8) (c + i) f
        | Rtl.Ne ->
          fun fr c f ->
            branch bcache target next fr (get fr l8 <> get fr r8) (c + i) f
        | Rtl.Lt ->
          fun fr c f ->
            branch bcache target next fr (get fr l8 < get fr r8) (c + i) f
        | Rtl.Le ->
          fun fr c f ->
            branch bcache target next fr (get fr l8 <= get fr r8) (c + i) f
        | Rtl.Ltu ->
          fun fr c f ->
            branch bcache target next fr
              (bias (get fr l8) < bias (get fr r8))
              (c + i) f
        | Rtl.Leu ->
          fun fr c f ->
            branch bcache target next fr
              (bias (get fr l8) <= bias (get fr r8))
              (c + i) f
        | Rtl.Gt | Rtl.Ge | Rtl.Gtu | Rtl.Geu -> assert false
      in
      Some
        (match cmp with
        | Rtl.Gt | Rtl.Ge | Rtl.Gtu | Rtl.Geu ->
          rr_ (swap_cmp cmp) (rr lsl 3) (lr lsl 3)
        | c -> rr_ c (lr lsl 3) (rr lsl 3))
    | Decode.Oreg lr, Decode.Oimm v ->
      Some (branch_ri i next cmp (lr lsl 3) v target)
    | Decode.Oimm v, Decode.Oreg rr ->
      Some (branch_ri i next (swap_cmp cmp) (rr lsl 3) v target)
    | Decode.Oimm _, Decode.Oimm _ -> None

  and branch_ri i next cmp l8 v target : code =
    let bv = bias v in
    match cmp with
    | Rtl.Eq ->
      fun fr c f ->
        branch bcache target next fr (get fr l8 = v) (c + i) f
    | Rtl.Ne ->
      fun fr c f ->
        branch bcache target next fr (get fr l8 <> v) (c + i) f
    | Rtl.Lt ->
      fun fr c f ->
        branch bcache target next fr (get fr l8 < v) (c + i) f
    | Rtl.Le ->
      fun fr c f ->
        branch bcache target next fr (get fr l8 <= v) (c + i) f
    | Rtl.Gt ->
      fun fr c f ->
        branch bcache target next fr (get fr l8 > v) (c + i) f
    | Rtl.Ge ->
      fun fr c f ->
        branch bcache target next fr (get fr l8 >= v) (c + i) f
    | Rtl.Ltu ->
      fun fr c f ->
        branch bcache target next fr (bias (get fr l8) < bv) (c + i) f
    | Rtl.Leu ->
      fun fr c f ->
        branch bcache target next fr (bias (get fr l8) <= bv) (c + i) f
    | Rtl.Gtu ->
      fun fr c f ->
        branch bcache target next fr (bias (get fr l8) > bv) (c + i) f
    | Rtl.Geu ->
      fun fr c f ->
        branch bcache target next fr (bias (get fr l8) >= bv) (c + i) f

  (* ---------------- fused emitters ------------------------------- *)
  (* address-compute + load: the base register is the value just
     computed, forwarded in a local *)
  and add_load pc (s : Decode.slot) (s2 : Decode.slot) op t a b dst
      (g : geo) : code option =
    let i1 = s.Decode.issue and i2 = s2.Decode.issue in
    let lat2 = s2.Decode.latency in
    let t8 = t lsl 3 and dst8 = dst lsl 3 in
    let adisp = g.acc.Decode.adisp in
    let body : code option =
      match (op, a, b) with
      | Rtl.Add, Decode.Oreg ar, Decode.Oreg br ->
        let next = chain (pc + 2) and a8 = ar lsl 3 and b8 = br lsl 3 in
        Some
          (fun fr cyc fuel ->
            let fuel = tick fuel in
            let tv = Int64.add (get fr a8) (get fr b8) in
            put fr t8 tv;
            let cyc = cyc + i1 in
            let fuel = tick fuel in
            load_to fr g dst8 dst lat2 cyc (Int64.add tv adisp);
            next fr (cyc + i2) fuel)
      | Rtl.Sub, Decode.Oreg ar, Decode.Oreg br ->
        let next = chain (pc + 2) and a8 = ar lsl 3 and b8 = br lsl 3 in
        Some
          (fun fr cyc fuel ->
            let fuel = tick fuel in
            let tv = Int64.sub (get fr a8) (get fr b8) in
            put fr t8 tv;
            let cyc = cyc + i1 in
            let fuel = tick fuel in
            load_to fr g dst8 dst lat2 cyc (Int64.add tv adisp);
            next fr (cyc + i2) fuel)
      | (Rtl.Add | Rtl.Sub), Decode.Oreg ar, Decode.Oimm v
      | Rtl.Add, Decode.Oimm v, Decode.Oreg ar ->
        let next = chain (pc + 2) and a8 = ar lsl 3 in
        let v = if op = Rtl.Sub then Int64.neg v else v in
        Some
          (fun fr cyc fuel ->
            let fuel = tick fuel in
            let tv = Int64.add (get fr a8) v in
            put fr t8 tv;
            let cyc = cyc + i1 in
            let fuel = tick fuel in
            load_to fr g dst8 dst lat2 cyc (Int64.add tv adisp);
            next fr (cyc + i2) fuel)
      | _ -> None
    in
    Option.map (prelude s t) body

  (* load + its unpacking consumer: the consumer's stall is on the
     loaded register alone, whose ready time the load just wrote *)
  and load_unpack pc (s : Decode.slot) (s2 : Decode.slot) t (g : geo) u :
      code =
    let next = chain (pc + 2) in
    let i1 = s.Decode.issue and lat1 = s.Decode.latency in
    let i2 = s2.Decode.issue and lat2 = s2.Decode.latency in
    let ab8 = g.acc.Decode.abase lsl 3 and adisp = g.acc.Decode.adisp in
    let t8 = t lsl 3 in
    (* the consumer's def; its ready time is written unconditionally,
       which is harmless for a register no stall set holds *)
    let d =
      match s2.Decode.op with
      | Decode.Ounop (_, d, _) | Decode.Oextract { dst = d; _ } -> d
      | _ -> assert false
    in
    let d8 = d lsl 3 in
    let[@inline] first fr cyc =
      load_to fr g t8 t lat1 cyc (Int64.add (get fr ab8) adisp);
      get fr t8
    in
    let[@inline] second fr cyc fuel w =
      put fr d8 w;
      Array.unsafe_set fr.ready d (cyc + lat2);
      next fr (cyc + i2) fuel
    in
    prelude s (-1)
      (match u with
      | Ext { signed = true; sh } ->
        fun fr cyc fuel ->
          let fuel = tick fuel in
          let v = first fr cyc in
          let cyc = stall1 fr t (cyc + i1) in
          let fuel = tick fuel in
          second fr cyc fuel (sext_at v 0 sh)
      | Ext { signed = false; sh } ->
        fun fr cyc fuel ->
          let fuel = tick fuel in
          let v = first fr cyc in
          let cyc = stall1 fr t (cyc + i1) in
          let fuel = tick fuel in
          second fr cyc fuel
            (Int64.shift_right_logical (Int64.shift_left v sh) sh)
      | Xi { signed = true; sh; sl; _ } ->
        fun fr cyc fuel ->
          let fuel = tick fuel in
          let v = first fr cyc in
          let cyc = stall1 fr t (cyc + i1) in
          let fuel = tick fuel in
          second fr cyc fuel (sext_at v sh sl)
      | Xi { signed = false; sh; wmask; _ } ->
        fun fr cyc fuel ->
          let fuel = tick fuel in
          let v = first fr cyc in
          let cyc = stall1 fr t (cyc + i1) in
          let fuel = tick fuel in
          second fr cyc fuel (zext_at v sh wmask)
      | Xr { signed = true; p8; sl; _ } ->
        fun fr cyc fuel ->
          let fuel = tick fuel in
          let v = first fr cyc in
          let cyc = stall1 fr t (cyc + i1) in
          let fuel = tick fuel in
          second fr cyc fuel (sext_at v (bit_pos (get fr p8)) sl)
      | Xr { signed = false; p8; wmask; _ } ->
        fun fr cyc fuel ->
          let fuel = tick fuel in
          let v = first fr cyc in
          let cyc = stall1 fr t (cyc + i1) in
          let fuel = tick fuel in
          second fr cyc fuel (zext_at v (bit_pos (get fr p8)) wmask))

  (* insert + store (the byte-pack idiom): the store's base register may
     itself be the inserted register, so the address is read from the
     file after the first half's write *)
  and insert_store pc (s : Decode.slot) (s2 : Decode.slot) t sr p width
      (g : geo) : code =
    let next = chain (pc + 2) in
    let i1 = s.Decode.issue and i2 = s2.Decode.issue in
    let t8 = t lsl 3 and r8 = sr lsl 3 in
    let sh = bit_pos p and wm = Width.mask width in
    let ab8 = g.acc.Decode.abase lsl 3 and adisp = g.acc.Decode.adisp in
    prelude s t (fun fr cyc fuel ->
        let fuel = tick fuel in
        let tv = insert_at (get fr t8) (get fr r8) sh wm in
        put fr t8 tv;
        let cyc = cyc + i1 in
        let fuel = tick fuel in
        let extra = store_to g (Int64.add (get fr ab8) adisp) tv in
        next fr (cyc + extra + i2) fuel)

  (* ---------------- generic emitter ------------------------------ *)
  (* One closure per instruction, exact for every instruction: the
     whole simulator when an i-cache is modelled (every non-pseudo
     instruction then performs a per-instruction cache access at its own
     fetch address — per-instruction state that superinstructions would
     have to carry anyway — so there is no fusion), and the fallback for
     the shapes [emit_plain] does not specialize. Same closure-threaded
     control flow, same bit-exact bookkeeping; the ready time of every
     def is written, which is harmless for registers no stall set
     holds. *)
  and emit_generic (s : Decode.slot) next : code =
    let issue = s.Decode.issue
    and latency = s.Decode.latency
    and reads = s.Decode.reads in
    let nr = Array.length reads in
    let fic =
      match st.icache with
      | Some ic when Int64.compare s.Decode.fetch 0L >= 0 -> Some ic
      | _ -> None
    in
    let fetch = s.Decode.fetch and ipen = m.icache_miss_penalty in
    (* fuel, fetch and stalls, in the oracle's order; returns the
       stalled clock *)
    let[@inline] preg fr cyc fuel =
      if fuel <= 0 then raise Out_of_fuel;
      let cyc =
        match fic with
        | Some ic -> (
          match Cache.access ic fetch with
          | `Hit -> cyc
          | `Miss -> cyc + ipen)
        | None -> cyc
      in
      stall_rest fr.ready reads 0 nr cyc
    in
    let ov fr = function
      | Decode.Oreg r -> Regfile.uget fr.regs (r lsl 3)
      | Decode.Oimm v -> v
    in
    let target t =
      if t < 0 then raise Not_found else Array.unsafe_get bcache t
    in
    match s.Decode.op with
    | Decode.Olabel slot ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        counters.(slot) <- counters.(slot) + 1;
        next fr cyc fuel
    | Decode.Onop ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        next fr cyc fuel
    | Decode.Omove (d, src) ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        Regfile.uset fr.regs (d lsl 3) (ov fr src);
        fr.ready.(d) <- cyc + latency;
        next fr (cyc + issue) fuel
    | Decode.Obinop (op, d, a, b) ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        Regfile.uset fr.regs (d lsl 3)
          (Rtl.eval_binop op (ov fr a) (ov fr b));
        fr.ready.(d) <- cyc + latency;
        next fr (cyc + issue) fuel
    | Decode.Ounop (op, d, a) ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        Regfile.uset fr.regs (d lsl 3) (Rtl.eval_unop op (ov fr a));
        fr.ready.(d) <- cyc + latency;
        next fr (cyc + issue) fuel
    | Decode.Oload { dst; acc; sign } ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        let addr =
          Int64.add
            (Regfile.uget fr.regs (acc.Decode.abase lsl 3))
            acc.Decode.adisp
        in
        let v, extra = slow_load st acc addr ~sign in
        Regfile.uset fr.regs (dst lsl 3) v;
        fr.ready.(dst) <- cyc + latency + extra;
        next fr (cyc + issue) fuel
    | Decode.Ostore { src; acc } ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        let addr =
          Int64.add
            (Regfile.uget fr.regs (acc.Decode.abase lsl 3))
            acc.Decode.adisp
        in
        let extra = slow_store st acc addr (ov fr src) in
        next fr (cyc + extra + issue) fuel
    | Decode.Oextract { dst; src; pos; width; sign } ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        let v =
          Rtl.extract_bytes
            (Regfile.uget fr.regs (src lsl 3))
            ~pos:(Int64.to_int (Int64.logand (ov fr pos) 7L))
            ~width ~sign
        in
        Regfile.uset fr.regs (dst lsl 3) v;
        fr.ready.(dst) <- cyc + latency;
        next fr (cyc + issue) fuel
    | Decode.Oinsert { dst; src; pos; width } ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        let v =
          Rtl.insert_bytes
            (Regfile.uget fr.regs (dst lsl 3))
            ~src:(ov fr src)
            ~pos:(Int64.to_int (Int64.logand (ov fr pos) 7L))
            ~width
        in
        Regfile.uset fr.regs (dst lsl 3) v;
        fr.ready.(dst) <- cyc + latency;
        next fr (cyc + issue) fuel
    | Decode.Ojump t ->
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        (target t) fr (cyc + issue) fuel
    | Decode.Obranch { cmp; l; r; target = t } ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        let cyc = cyc + issue in
        if Rtl.eval_cmp cmp (ov fr l) (ov fr r) then (target t) fr cyc fuel
        else next fr cyc fuel
    | Decode.Ocall { dst; func; args } ->
      let next = Lazy.force next in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        let vargs =
          Array.fold_right (fun a acc -> ov fr a :: acc) args []
        in
        st.cycles <- cyc + issue;
        st.fuel <- fuel;
        let v = jcall st func vargs in
        let cyc = st.cycles and fuel = st.fuel in
        if dst >= 0 then begin
          Regfile.uset fr.regs (dst lsl 3) v;
          fr.ready.(dst) <- cyc
        end;
        next fr cyc fuel
    | Decode.Oret v ->
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        st.cycles <- cyc + issue;
        st.fuel <- fuel;
        (match v with Some o -> ov fr o | None -> 0L)
  in

  (* Blocks bottom-up: every label pc gets its closure before any block
     that falls through to or branches at it is compiled. *)
  for pc = len - 1 downto 0 do
    match code.(pc).Decode.op with
    | Decode.Olabel _ -> bcache.(pc) <- at pc
    | _ -> ()
  done;
  chain 0

let run ~machine ~memory ~decode ~dcache ~icache ~fuel ~entry ~args =
  let st =
    {
      machine;
      memory;
      dcache;
      icache;
      decode;
      compiled = Hashtbl.create 8;
      fuel0 = fuel;
      cycles = 0;
      loads = 0;
      stores = 0;
      fuel;
      sp = Int64.of_int (Memory.size memory);
      compile_ns = 0;
    }
  in
  let value = jcall st entry args in
  (value, st)

let insts st = st.fuel0 - st.fuel
let cycles st = st.cycles
let loads st = st.loads
let stores st = st.stores
let compile_seconds st = float_of_int st.compile_ns *. 1e-9
