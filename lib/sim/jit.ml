open Mac_rtl
module Machine = Mac_machine.Machine

(* Superblock closure compilation: the third simulator engine.

   Each decoded function is compiled once per run into a chain of OCaml
   closures (threaded code): one closure per instruction — or per fused
   instruction *pair* — whose free variables are everything the decoded
   slot knows statically (operand register byte offsets, immediates,
   issue cost, latency, stall set, access geometry). Executing an
   instruction is then one indirect tail call with zero dispatch: no
   [code.(pc)] fetch, no constructor match, no operand match.

   The two per-instruction counters — the cycle clock and the remaining
   fuel — are threaded through the closure chain as unboxed arguments
   instead of living in the shared state record: a closure receives
   [cyc] and [fuel], updates them in registers, and passes them to its
   successor, syncing back to the state only at call/return boundaries.
   ([insts] needs no accounting at all: every instruction burns exactly
   one fuel, so it is the fuel spent.)

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
   through one unchecked 64-bit access: for a width-[w] load inside the
   guard ([eai >= 8] and in-bounds), the value occupies the top [w]
   bytes of the little-endian word ending at the access's last byte, so
   one read plus one compile-time shift replaces per-width dispatch —
   and choosing an arithmetic versus logical shift is exactly the sign
   extension. Sub-word stores are a read-modify-write of the same word
   with a compile-time mask. (This identifies simulated-memory bytes
   with host byte order, so the fast path is gated on a little-endian
   host; a big-endian host takes the generic byte-by-byte path on every
   access — slower but bit-identical.)

   Bit-identity with the reference engine is non-negotiable: every
   closure performs exactly the bookkeeping sequence of the decoded
   interpreter — instruction count, fuel check (a trap mid-superblock
   must fire between the two halves of a fused pair, never before or
   after both), operand stalls, issue/latency/miss accounting, and the
   exact trap and fault strings. Fused pairs write the first
   instruction's result to the register file before the second half
   runs, so the architectural state at any trap point is identical to
   the unfused execution; fusion only forwards the value in a local. *)

exception Trap of string

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

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

(* Operand-stall bookkeeping, specialized at compile time on the size of
   the decoded stall set: almost every instruction reads 0, 1 or 2
   registers, so those cases are straight-line; longer sets (calls) take
   the loop. *)
let rec stall_rest (ready : int array) (reads : int array) i n cyc =
  if i >= n then cyc
  else
    let t = Array.unsafe_get ready (Array.unsafe_get reads i) in
    stall_rest ready reads (i + 1) n (if t > cyc then t else cyc)

let[@inline] stall (fr : frame) nr r0 r1 (reads : int array) cyc =
  if nr = 0 then cyc
  else
    let t0 = Array.unsafe_get fr.ready r0 in
    let cyc = if t0 > cyc then t0 else cyc in
    if nr = 1 then cyc
    else
      let t1 = Array.unsafe_get fr.ready r1 in
      let cyc = if t1 > cyc then t1 else cyc in
      if nr = 2 then cyc else stall_rest fr.ready reads 2 nr cyc

(* Compile-time split of a stall set for [stall]. *)
let rinfo (reads : int array) =
  let nr = Array.length reads in
  ( nr,
    (if nr > 0 then reads.(0) else 0),
    if nr > 1 then reads.(1) else 0 )

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

let r_of = function Decode.Oreg r -> r | Decode.Oimm _ -> -1
let i_of = function Decode.Oreg _ -> 0L | Decode.Oimm v -> v

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
    try c.jentry fr st.cycles st.fuel
    with Rtl.Division_by_zero -> trap "division by zero in %s" fn.Decode.fname
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
  let fuse_mem_ok (acc : Decode.access) = acc.Decode.alegal && geom in

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

  let rec chain pc : code =
    if pc >= len then fell_off
    else
      match code.(pc).Decode.op with
      | Decode.Olabel _ -> Array.unsafe_get bcache pc
      | _ -> at pc

  and at pc : code =
    let s = code.(pc) in
    match st.icache with
    | Some ic -> emit_generic ic pc s
    | None -> (
      match fuse pc s with Some c -> c | None -> emit_plain pc s)

  (* ---------------- superinstruction fusion ---------------------- *)
  (* A pair (pc, pc+1) inside one block — pc+1 is never a label, hence
     never a branch target — is fused when the second instruction's key
     operand is exactly the first's result. The fused closure still
     performs BOTH instructions' complete bookkeeping (counts, fuel,
     stalls, costs) and still writes the first result to the register
     file before the second half, so traps between the halves observe
     identical state; the value is merely forwarded in a local. *)
  and fuse pc (s : Decode.slot) : code option =
    if pc + 1 >= len then None
    else
      let s2 = code.(pc + 1) in
      match (s.Decode.op, s2.Decode.op) with
      (* compare+branch *)
      | ( Decode.Obinop (Rtl.Cmp c, t, a, b),
          Decode.Obranch { cmp; l = Decode.Oreg lr; r = Decode.Oimm rv; target } )
        when lr = t ->
        Some (emit_cmp_branch pc s s2 c t a b cmp rv target)
      (* address-compute+load *)
      | ( Decode.Obinop (((Rtl.Add | Rtl.Sub) as op), t, a, b),
          Decode.Oload { dst; acc; sign } )
        when acc.Decode.abase = t && fuse_mem_ok acc ->
        Some (emit_binop_load pc s s2 op t a b dst acc sign)
      (* load+extend *)
      | ( Decode.Oload { dst = t; acc; sign },
          Decode.Ounop (((Rtl.Sext _ | Rtl.Zext _) as uop), d, Decode.Oreg ur) )
        when ur = t && fuse_mem_ok acc ->
        let xsigned, xsh =
          match uop with
          | Rtl.Sext w -> (true, 64 - Width.bits w)
          | Rtl.Zext w -> (false, 64 - Width.bits w)
          | _ -> assert false
        in
        Some
          (emit_load_then pc s s2 t acc sign ~xmode:(if xsigned then 0 else 1)
             ~xsh ~xsl:0 ~xmask:0L ~dst2:d)
      (* load+extract (the byte-unpack idiom of legalized/coalesced code) *)
      | ( Decode.Oload { dst = t; acc; sign },
          Decode.Oextract
            { dst = d; src; pos = Decode.Oimm p; width; sign = xsign } )
        when src = t && fuse_mem_ok acc ->
        let sh = 8 * Int64.to_int (Int64.logand p 7L) in
        let sl = 64 - Width.bits width in
        Some
          (emit_load_then pc s s2 t acc sign
             ~xmode:(if xsign = Rtl.Signed then 2 else 3)
             ~xsh:sh ~xsl:sl ~xmask:(Width.mask width) ~dst2:d)
      (* compute+store *)
      | ( Decode.Obinop
            ( (( Rtl.Add | Rtl.Sub | Rtl.Mul | Rtl.And | Rtl.Or | Rtl.Xor
               | Rtl.Shl | Rtl.Lshr | Rtl.Ashr ) as op),
              t, a, b ),
          Decode.Ostore { src = Decode.Oreg sr; acc } )
        when sr = t && fuse_mem_ok acc ->
        Some (emit_binop_store pc s s2 op t a b acc)
      (* insert+store (the byte-pack idiom) *)
      | ( Decode.Oinsert { dst = t; src; pos = Decode.Oimm p; width },
          Decode.Ostore { src = Decode.Oreg sr; acc } )
        when sr = t && fuse_mem_ok acc ->
        Some (emit_insert_store pc s s2 t src p width acc)
      | _ -> None

  (* ---------------- single-instruction emitters ------------------ *)
  and emit_plain pc (s : Decode.slot) : code =
    let issue = s.Decode.issue
    and latency = s.Decode.latency
    and reads = s.Decode.reads in
    let nr, r0, r1 = rinfo reads in
    match s.Decode.op with
    | Decode.Olabel slot ->
      let next = chain (pc + 1) in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        if fuel <= 0 then trap "out of fuel in %s" fname;
        let cyc = stall fr nr r0 r1 reads cyc in
        Array.unsafe_set counters slot (Array.unsafe_get counters slot + 1);
        next fr cyc fuel
    | Decode.Onop ->
      let next = chain (pc + 1) in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        if fuel <= 0 then trap "out of fuel in %s" fname;
        let cyc = stall fr nr r0 r1 reads cyc in
        next fr cyc fuel
    | Decode.Omove (d, src) ->
      let next = chain (pc + 1) in
      let sr = r_of src and si = i_of src in
      let d8 = d lsl 3 and s8 = sr lsl 3 in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        if fuel <= 0 then trap "out of fuel in %s" fname;
        let cyc = stall fr nr r0 r1 reads cyc in
        let v = if sr >= 0 then Regfile.uget fr.regs s8 else si in
        Regfile.uset fr.regs d8 v;
        Array.unsafe_set fr.ready d (cyc + latency);
        next fr (cyc + issue) fuel
    | Decode.Obinop (op, d, a, b) ->
      let next = chain (pc + 1) in
      let ar = r_of a and av0 = i_of a and br = r_of b and bv0 = i_of b in
      let d8 = d lsl 3 and a8 = ar lsl 3 and b8 = br lsl 3 in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        if fuel <= 0 then trap "out of fuel in %s" fname;
        let cyc = stall fr nr r0 r1 reads cyc in
        let av = if ar >= 0 then Regfile.uget fr.regs a8 else av0 in
        let bv = if br >= 0 then Regfile.uget fr.regs b8 else bv0 in
        let v =
          match op with
          | Rtl.Add -> Int64.add av bv
          | Rtl.Sub -> Int64.sub av bv
          | Rtl.Mul -> Int64.mul av bv
          | Rtl.Div ->
            if Int64.equal bv 0L then raise Rtl.Division_by_zero
            else Int64.div av bv
          | Rtl.Rem ->
            if Int64.equal bv 0L then raise Rtl.Division_by_zero
            else Int64.rem av bv
          | Rtl.And -> Int64.logand av bv
          | Rtl.Or -> Int64.logor av bv
          | Rtl.Xor -> Int64.logxor av bv
          | Rtl.Shl ->
            Int64.shift_left av (Int64.to_int (Int64.logand bv 63L))
          | Rtl.Lshr ->
            Int64.shift_right_logical av
              (Int64.to_int (Int64.logand bv 63L))
          | Rtl.Ashr ->
            Int64.shift_right av (Int64.to_int (Int64.logand bv 63L))
          | Rtl.Cmp c -> if Rtl.eval_cmp c av bv then 1L else 0L
        in
        Regfile.uset fr.regs d8 v;
        Array.unsafe_set fr.ready d (cyc + latency);
        next fr (cyc + issue) fuel
    | Decode.Ounop (op, d, a) ->
      let next = chain (pc + 1) in
      let ar = r_of a and av0 = i_of a in
      let d8 = d lsl 3 and a8 = ar lsl 3 in
      (* 0 = neg, 1 = not, 2 = sext by [sh], 3 = zext by [sh] *)
      let ucode, sh =
        match op with
        | Rtl.Neg -> (0, 0)
        | Rtl.Not -> (1, 0)
        | Rtl.Sext w -> (2, 64 - Width.bits w)
        | Rtl.Zext w -> (3, 64 - Width.bits w)
      in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        if fuel <= 0 then trap "out of fuel in %s" fname;
        let cyc = stall fr nr r0 r1 reads cyc in
        let av = if ar >= 0 then Regfile.uget fr.regs a8 else av0 in
        let v =
          match ucode with
          | 0 -> Int64.neg av
          | 1 -> Int64.lognot av
          | 2 -> Int64.shift_right (Int64.shift_left av sh) sh
          | _ -> Int64.shift_right_logical (Int64.shift_left av sh) sh
        in
        Regfile.uset fr.regs d8 v;
        Array.unsafe_set fr.ready d (cyc + latency);
        next fr (cyc + issue) fuel
    | Decode.Oload { dst; acc; sign } ->
      let next = chain (pc + 1) in
      emit_load_body ~issue ~latency ~nr ~r0 ~r1 ~reads ~dst ~acc ~sign
        ~next
    | Decode.Ostore { src; acc } ->
      let next = chain (pc + 1) in
      let sr = r_of src and si = i_of src in
      let s8 = sr lsl 3 in
      if not (fuse_mem_ok acc) then
        let ab8 = acc.Decode.abase lsl 3 and adisp = acc.Decode.adisp in
        fun fr cyc fuel ->
          let fuel = fuel - 1 in
          if fuel <= 0 then trap "out of fuel in %s" fname;
          let cyc = stall fr nr r0 r1 reads cyc in
          let addr = Int64.add (Regfile.uget fr.regs ab8) adisp in
          let sv = if sr >= 0 then Regfile.uget fr.regs s8 else si in
          let extra = slow_store st acc addr sv in
          next fr (cyc + extra + issue) fuel
      else begin
        let ab8 = acc.Decode.abase lsl 3 and adisp = acc.Decode.adisp in
        let wb = Int64.to_int acc.Decode.wbytes in
        let wmask = wb - 1 and lnotw = lnot (wb - 1) in
        let aligned = acc.Decode.aaligned in
        let wb8 = wb = 8 in
        let sshift = 64 - (8 * wb) in
        let lowmask = Int64.of_int ((1 lsl sshift) - 1) in
        fun fr cyc fuel ->
          let fuel = fuel - 1 in
          if fuel <= 0 then trap "out of fuel in %s" fname;
          let cyc = stall fr nr r0 r1 reads cyc in
          let addr = Int64.add (Regfile.uget fr.regs ab8) adisp in
          let sv = if sr >= 0 then Regfile.uget fr.regs s8 else si in
          let ai = Int64.to_int addr in
          let eai = if aligned then ai else ai land lnotw in
          if
            le && ai >= 0 && eai >= 8
            && eai + wb <= msize
            && ((not aligned) || ai land wmask = 0)
          then begin
            let miss = dcache_miss eai in
            st.stores <- st.stores + 1;
            if wb8 then mset64 mb eai sv
            else begin
              let woff = eai + wb - 8 in
              mset64 mb woff
                (Int64.logor
                   (Int64.logand (mget64 mb woff) lowmask)
                   (Int64.shift_left sv sshift))
            end;
            next fr (cyc + miss + issue) fuel
          end
          else begin
            let extra = slow_store st acc addr sv in
            next fr (cyc + extra + issue) fuel
          end
      end
    | Decode.Oextract { dst; src; pos; width; sign } ->
      let next = chain (pc + 1) in
      let sl = 64 - Width.bits width in
      let wmask = Width.mask width in
      let signed = sign = Rtl.Signed in
      let dst8 = dst lsl 3 and src8 = src lsl 3 in
      (match pos with
      | Decode.Oimm p ->
        let sh = 8 * Int64.to_int (Int64.logand p 7L) in
        fun fr cyc fuel ->
          let fuel = fuel - 1 in
          if fuel <= 0 then trap "out of fuel in %s" fname;
          let cyc = stall fr nr r0 r1 reads cyc in
          let v1 =
            Int64.shift_right_logical (Regfile.uget fr.regs src8) sh
          in
          let v =
            if signed then Int64.shift_right (Int64.shift_left v1 sl) sl
            else Int64.logand v1 wmask
          in
          Regfile.uset fr.regs dst8 v;
          Array.unsafe_set fr.ready dst (cyc + latency);
          next fr (cyc + issue) fuel
      | Decode.Oreg pr ->
        let p8 = pr lsl 3 in
        fun fr cyc fuel ->
          let fuel = fuel - 1 in
          if fuel <= 0 then trap "out of fuel in %s" fname;
          let cyc = stall fr nr r0 r1 reads cyc in
          let sh =
            8 * Int64.to_int (Int64.logand (Regfile.uget fr.regs p8) 7L)
          in
          let v1 =
            Int64.shift_right_logical (Regfile.uget fr.regs src8) sh
          in
          let v =
            if signed then Int64.shift_right (Int64.shift_left v1 sl) sl
            else Int64.logand v1 wmask
          in
          Regfile.uset fr.regs dst8 v;
          Array.unsafe_set fr.ready dst (cyc + latency);
          next fr (cyc + issue) fuel)
    | Decode.Oinsert { dst; src; pos; width } ->
      let next = chain (pc + 1) in
      let wmask = Width.mask width in
      let sr = r_of src and si = i_of src in
      let dst8 = dst lsl 3 and s8 = sr lsl 3 in
      (match pos with
      | Decode.Oimm p ->
        let sh = 8 * Int64.to_int (Int64.logand p 7L) in
        let keep = Int64.lognot (Int64.shift_left wmask sh) in
        fun fr cyc fuel ->
          let fuel = fuel - 1 in
          if fuel <= 0 then trap "out of fuel in %s" fname;
          let cyc = stall fr nr r0 r1 reads cyc in
          let dv = Regfile.uget fr.regs dst8 in
          let sv = if sr >= 0 then Regfile.uget fr.regs s8 else si in
          let v =
            Int64.logor (Int64.logand dv keep)
              (Int64.shift_left (Int64.logand sv wmask) sh)
          in
          Regfile.uset fr.regs dst8 v;
          Array.unsafe_set fr.ready dst (cyc + latency);
          next fr (cyc + issue) fuel
      | Decode.Oreg pr ->
        let p8 = pr lsl 3 in
        fun fr cyc fuel ->
          let fuel = fuel - 1 in
          if fuel <= 0 then trap "out of fuel in %s" fname;
          let cyc = stall fr nr r0 r1 reads cyc in
          let sh =
            8 * Int64.to_int (Int64.logand (Regfile.uget fr.regs p8) 7L)
          in
          let dv = Regfile.uget fr.regs dst8 in
          let sv = if sr >= 0 then Regfile.uget fr.regs s8 else si in
          let v =
            Int64.logor
              (Int64.logand dv (Int64.lognot (Int64.shift_left wmask sh)))
              (Int64.shift_left (Int64.logand sv wmask) sh)
          in
          Regfile.uset fr.regs dst8 v;
          Array.unsafe_set fr.ready dst (cyc + latency);
          next fr (cyc + issue) fuel)
    | Decode.Ojump t ->
      if t < 0 then
        fun fr cyc fuel ->
          let fuel = fuel - 1 in
          if fuel <= 0 then trap "out of fuel in %s" fname;
          let _ = stall fr nr r0 r1 reads cyc in
          raise Not_found
      else
        fun fr cyc fuel ->
          let fuel = fuel - 1 in
          if fuel <= 0 then trap "out of fuel in %s" fname;
          let cyc = stall fr nr r0 r1 reads cyc in
          (Array.unsafe_get bcache t) fr (cyc + issue) fuel
    | Decode.Obranch { cmp; l; r; target } ->
      let next = chain (pc + 1) in
      let lr = r_of l and lv0 = i_of l and rr = r_of r and rv0 = i_of r in
      let l8 = lr lsl 3 and r8 = rr lsl 3 in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        if fuel <= 0 then trap "out of fuel in %s" fname;
        let cyc = stall fr nr r0 r1 reads cyc in
        let cyc = cyc + issue in
        let lv = if lr >= 0 then Regfile.uget fr.regs l8 else lv0 in
        let rv = if rr >= 0 then Regfile.uget fr.regs r8 else rv0 in
        let taken =
          match cmp with
          | Rtl.Eq -> Int64.equal lv rv
          | Rtl.Ne -> not (Int64.equal lv rv)
          | Rtl.Lt -> Int64.compare lv rv < 0
          | Rtl.Le -> Int64.compare lv rv <= 0
          | Rtl.Gt -> Int64.compare lv rv > 0
          | Rtl.Ge -> Int64.compare lv rv >= 0
          | Rtl.Ltu -> Int64.unsigned_compare lv rv < 0
          | Rtl.Leu -> Int64.unsigned_compare lv rv <= 0
          | Rtl.Gtu -> Int64.unsigned_compare lv rv > 0
          | Rtl.Geu -> Int64.unsigned_compare lv rv >= 0
        in
        if taken then begin
          if target < 0 then raise Not_found;
          (Array.unsafe_get bcache target) fr cyc fuel
        end
        else next fr cyc fuel
    | Decode.Ocall { dst; func; args } ->
      let next = chain (pc + 1) in
      let dst8 = dst lsl 3 in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        if fuel <= 0 then trap "out of fuel in %s" fname;
        let cyc = stall fr nr r0 r1 reads cyc in
        let vargs =
          Array.fold_right
            (fun a acc ->
              (match a with
              | Decode.Oreg r -> Regfile.uget fr.regs (r lsl 3)
              | Decode.Oimm v -> v)
              :: acc)
            args []
        in
        st.cycles <- cyc + issue;
        st.fuel <- fuel;
        let v = jcall st func vargs in
        let cyc = st.cycles and fuel = st.fuel in
        if dst >= 0 then begin
          Regfile.uset fr.regs dst8 v;
          Array.unsafe_set fr.ready dst cyc
        end;
        next fr cyc fuel
    | Decode.Oret v ->
      let vr, vi =
        match v with Some o -> (r_of o, i_of o) | None -> (-1, 0L)
      in
      let v8 = vr lsl 3 in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        if fuel <= 0 then trap "out of fuel in %s" fname;
        let cyc = stall fr nr r0 r1 reads cyc in
        st.cycles <- cyc + issue;
        st.fuel <- fuel;
        if vr >= 0 then Regfile.uget fr.regs v8 else vi

  (* Standalone load body, shared by the plain emitter; the fused
     variants below inline the same shape so the loaded value stays in a
     local. *)
  and emit_load_body ~issue ~latency ~nr ~r0 ~r1 ~reads ~dst ~acc ~sign
      ~next : code =
    let signed = sign = Rtl.Signed in
    let dst8 = dst lsl 3 in
    if not (fuse_mem_ok acc) then
      let ab8 = acc.Decode.abase lsl 3 and adisp = acc.Decode.adisp in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        if fuel <= 0 then trap "out of fuel in %s" fname;
        let cyc = stall fr nr r0 r1 reads cyc in
        let addr = Int64.add (Regfile.uget fr.regs ab8) adisp in
        let v, extra = slow_load st acc addr ~sign in
        Regfile.uset fr.regs dst8 v;
        Array.unsafe_set fr.ready dst (cyc + latency + extra);
        next fr (cyc + issue) fuel
    else begin
      let ab8 = acc.Decode.abase lsl 3 and adisp = acc.Decode.adisp in
      let wb = Int64.to_int acc.Decode.wbytes in
      let wmask = wb - 1 and lnotw = lnot (wb - 1) in
      let aligned = acc.Decode.aaligned in
      let sshift = 64 - (8 * wb) in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        if fuel <= 0 then trap "out of fuel in %s" fname;
        let cyc = stall fr nr r0 r1 reads cyc in
        let addr = Int64.add (Regfile.uget fr.regs ab8) adisp in
        let ai = Int64.to_int addr in
        let eai = if aligned then ai else ai land lnotw in
        if
          le && ai >= 0 && eai >= 8
          && eai + wb <= msize
          && ((not aligned) || ai land wmask = 0)
        then begin
          let miss = dcache_miss eai in
          st.loads <- st.loads + 1;
          let v64 = mget64 mb (eai + wb - 8) in
          let v =
            if signed then Int64.shift_right v64 sshift
            else Int64.shift_right_logical v64 sshift
          in
          Regfile.uset fr.regs dst8 v;
          Array.unsafe_set fr.ready dst (cyc + latency + miss);
          next fr (cyc + issue) fuel
        end
        else begin
          let v, extra = slow_load st acc addr ~sign in
          Regfile.uset fr.regs dst8 v;
          Array.unsafe_set fr.ready dst (cyc + latency + extra);
          next fr (cyc + issue) fuel
        end
    end

  (* ---------------- fused emitters ------------------------------- *)
  and emit_cmp_branch pc (s : Decode.slot) (s2 : Decode.slot) c t a b bcmp
      rv target : code =
    let next = chain (pc + 2) in
    let ar = r_of a and av0 = i_of a and br = r_of b and bv0 = i_of b in
    let t8 = t lsl 3 and a8 = ar lsl 3 and b8 = br lsl 3 in
    let issue1 = s.Decode.issue
    and lat1 = s.Decode.latency in
    let reads1 = s.Decode.reads in
    let nr1, r10, r11 = rinfo reads1 in
    let issue2 = s2.Decode.issue and reads2 = s2.Decode.reads in
    let nr2, r20, r21 = rinfo reads2 in
    (* the compare writes 0/1, so the branch decision is a compile-time
       function of the compare's boolean *)
    let tif = Rtl.eval_cmp bcmp 1L rv and tiff = Rtl.eval_cmp bcmp 0L rv in
    fun fr cyc fuel ->
      let fuel = fuel - 1 in
      if fuel <= 0 then trap "out of fuel in %s" fname;
      let cyc = stall fr nr1 r10 r11 reads1 cyc in
      let av = if ar >= 0 then Regfile.uget fr.regs a8 else av0 in
      let bv = if br >= 0 then Regfile.uget fr.regs b8 else bv0 in
      let cond =
        match c with
        | Rtl.Eq -> Int64.equal av bv
        | Rtl.Ne -> not (Int64.equal av bv)
        | Rtl.Lt -> Int64.compare av bv < 0
        | Rtl.Le -> Int64.compare av bv <= 0
        | Rtl.Gt -> Int64.compare av bv > 0
        | Rtl.Ge -> Int64.compare av bv >= 0
        | Rtl.Ltu -> Int64.unsigned_compare av bv < 0
        | Rtl.Leu -> Int64.unsigned_compare av bv <= 0
        | Rtl.Gtu -> Int64.unsigned_compare av bv > 0
        | Rtl.Geu -> Int64.unsigned_compare av bv >= 0
      in
      Regfile.uset fr.regs t8 (if cond then 1L else 0L);
      Array.unsafe_set fr.ready t (cyc + lat1);
      let cyc = cyc + issue1 in
      (* branch half *)
      let fuel = fuel - 1 in
      if fuel <= 0 then trap "out of fuel in %s" fname;
      let cyc = stall fr nr2 r20 r21 reads2 cyc in
      let cyc = cyc + issue2 in
      if if cond then tif else tiff then begin
        if target < 0 then raise Not_found;
        (Array.unsafe_get bcache target) fr cyc fuel
      end
      else next fr cyc fuel

  and emit_binop_load pc (s : Decode.slot) (s2 : Decode.slot) op t a b dst
      (acc : Decode.access) sign : code =
    let next = chain (pc + 2) in
    let ar = r_of a and av0 = i_of a and br = r_of b and bv0 = i_of b in
    let t8 = t lsl 3 and a8 = ar lsl 3 and b8 = br lsl 3 in
    let dst8 = dst lsl 3 in
    let is_add = op = Rtl.Add in
    let issue1 = s.Decode.issue
    and lat1 = s.Decode.latency in
    let reads1 = s.Decode.reads in
    let nr1, r10, r11 = rinfo reads1 in
    let issue2 = s2.Decode.issue
    and lat2 = s2.Decode.latency in
    let reads2 = s2.Decode.reads in
    let nr2, r20, r21 = rinfo reads2 in
    let adisp = acc.Decode.adisp in
    let wb = Int64.to_int acc.Decode.wbytes in
    let wmask = wb - 1 and lnotw = lnot (wb - 1) in
    let aligned = acc.Decode.aaligned in
    let signed = sign = Rtl.Signed in
    let sshift = 64 - (8 * wb) in
    fun fr cyc fuel ->
      let fuel = fuel - 1 in
      if fuel <= 0 then trap "out of fuel in %s" fname;
      let cyc = stall fr nr1 r10 r11 reads1 cyc in
      let av = if ar >= 0 then Regfile.uget fr.regs a8 else av0 in
      let bv = if br >= 0 then Regfile.uget fr.regs b8 else bv0 in
      let tv = if is_add then Int64.add av bv else Int64.sub av bv in
      Regfile.uset fr.regs t8 tv;
      Array.unsafe_set fr.ready t (cyc + lat1);
      let cyc = cyc + issue1 in
      (* load half: the base register is the value just computed *)
      let fuel = fuel - 1 in
      if fuel <= 0 then trap "out of fuel in %s" fname;
      let cyc = stall fr nr2 r20 r21 reads2 cyc in
      let addr = Int64.add tv adisp in
      let ai = Int64.to_int addr in
      let eai = if aligned then ai else ai land lnotw in
      if
        le && ai >= 0 && eai >= 8
        && eai + wb <= msize
        && ((not aligned) || ai land wmask = 0)
      then begin
        let miss = dcache_miss eai in
        st.loads <- st.loads + 1;
        let v64 = mget64 mb (eai + wb - 8) in
        let v =
          if signed then Int64.shift_right v64 sshift
          else Int64.shift_right_logical v64 sshift
        in
        Regfile.uset fr.regs dst8 v;
        Array.unsafe_set fr.ready dst (cyc + lat2 + miss);
        next fr (cyc + issue2) fuel
      end
      else begin
        let v, extra = slow_load st acc addr ~sign in
        Regfile.uset fr.regs dst8 v;
        Array.unsafe_set fr.ready dst (cyc + lat2 + extra);
        next fr (cyc + issue2) fuel
      end

  (* Shared load-then-unary shape: perform the complete load (fast or
     slow path) writing [t], keep the value local, then run the second
     half — extend (mode 0/1) or extract (mode 2/3), all compile-time
     constants — so one closure covers the *pair* and the forwarded
     value never round-trips through the register file. *)
  and emit_load_then pc (s : Decode.slot) (s2 : Decode.slot) t
      (acc : Decode.access) sign ~xmode ~xsh ~xsl ~xmask ~dst2 : code =
    let next = chain (pc + 2) in
    let issue1 = s.Decode.issue
    and lat1 = s.Decode.latency in
    let reads1 = s.Decode.reads in
    let nr1, r10, r11 = rinfo reads1 in
    let issue2 = s2.Decode.issue
    and lat2 = s2.Decode.latency in
    let reads2 = s2.Decode.reads in
    let nr2, r20, r21 = rinfo reads2 in
    let ab8 = acc.Decode.abase lsl 3 and adisp = acc.Decode.adisp in
    let t8 = t lsl 3 and dst28 = dst2 lsl 3 in
    let wb = Int64.to_int acc.Decode.wbytes in
    let wmask = wb - 1 and lnotw = lnot (wb - 1) in
    let aligned = acc.Decode.aaligned in
    let signed = sign = Rtl.Signed in
    let sshift = 64 - (8 * wb) in
    fun fr cyc fuel ->
      let fuel = fuel - 1 in
      if fuel <= 0 then trap "out of fuel in %s" fname;
      let cyc = stall fr nr1 r10 r11 reads1 cyc in
      let addr = Int64.add (Regfile.uget fr.regs ab8) adisp in
      let ai = Int64.to_int addr in
      let eai = if aligned then ai else ai land lnotw in
      let v =
        if
          le && ai >= 0 && eai >= 8
          && eai + wb <= msize
          && ((not aligned) || ai land wmask = 0)
        then begin
          let miss = dcache_miss eai in
          st.loads <- st.loads + 1;
          let v64 = mget64 mb (eai + wb - 8) in
          let v =
            if signed then Int64.shift_right v64 sshift
            else Int64.shift_right_logical v64 sshift
          in
          Regfile.uset fr.regs t8 v;
          Array.unsafe_set fr.ready t (cyc + lat1 + miss);
          v
        end
        else begin
          (* a trap here (misalignment, fault) aborts before the second
             half runs — exactly as the unfused sequence would *)
          let v, extra = slow_load st acc addr ~sign in
          Regfile.uset fr.regs t8 v;
          Array.unsafe_set fr.ready t (cyc + lat1 + extra);
          v
        end
      in
      let cyc = cyc + issue1 in
      let fuel = fuel - 1 in
      if fuel <= 0 then trap "out of fuel in %s" fname;
      let cyc = stall fr nr2 r20 r21 reads2 cyc in
      let w =
        match xmode with
        | 0 -> Int64.shift_right (Int64.shift_left v xsh) xsh
        | 1 -> Int64.shift_right_logical (Int64.shift_left v xsh) xsh
        | 2 ->
          let v1 = Int64.shift_right_logical v xsh in
          Int64.shift_right (Int64.shift_left v1 xsl) xsl
        | _ -> Int64.logand (Int64.shift_right_logical v xsh) xmask
      in
      Regfile.uset fr.regs dst28 w;
      Array.unsafe_set fr.ready dst2 (cyc + lat2);
      next fr (cyc + issue2) fuel

  and emit_binop_store pc (s : Decode.slot) (s2 : Decode.slot) op t a b
      (acc : Decode.access) : code =
    let ar = r_of a and av0 = i_of a and br = r_of b and bv0 = i_of b in
    let t8 = t lsl 3 and a8 = ar lsl 3 and b8 = br lsl 3 in
    let issue1 = s.Decode.issue
    and lat1 = s.Decode.latency in
    let reads1 = s.Decode.reads in
    let nr1, r10, r11 = rinfo reads1 in
    let store = emit_store_half pc s2 acc in
    fun fr cyc fuel ->
      let fuel = fuel - 1 in
      if fuel <= 0 then trap "out of fuel in %s" fname;
      let cyc = stall fr nr1 r10 r11 reads1 cyc in
      let av = if ar >= 0 then Regfile.uget fr.regs a8 else av0 in
      let bv = if br >= 0 then Regfile.uget fr.regs b8 else bv0 in
      let tv =
        match op with
        | Rtl.Add -> Int64.add av bv
        | Rtl.Sub -> Int64.sub av bv
        | Rtl.Mul -> Int64.mul av bv
        | Rtl.And -> Int64.logand av bv
        | Rtl.Or -> Int64.logor av bv
        | Rtl.Xor -> Int64.logxor av bv
        | Rtl.Shl ->
          Int64.shift_left av (Int64.to_int (Int64.logand bv 63L))
        | Rtl.Lshr ->
          Int64.shift_right_logical av
            (Int64.to_int (Int64.logand bv 63L))
        | Rtl.Ashr ->
          Int64.shift_right av (Int64.to_int (Int64.logand bv 63L))
        | Rtl.Div | Rtl.Rem | Rtl.Cmp _ -> assert false
      in
      Regfile.uset fr.regs t8 tv;
      Array.unsafe_set fr.ready t (cyc + lat1);
      store fr (cyc + issue1) fuel tv

  and emit_insert_store pc (s : Decode.slot) (s2 : Decode.slot) t src p
      width (acc : Decode.access) : code =
    let sr = r_of src and si = i_of src in
    let t8 = t lsl 3 and s8 = sr lsl 3 in
    let sh = 8 * Int64.to_int (Int64.logand p 7L) in
    let wmask = Width.mask width in
    let keep = Int64.lognot (Int64.shift_left wmask sh) in
    let issue1 = s.Decode.issue
    and lat1 = s.Decode.latency in
    let reads1 = s.Decode.reads in
    let nr1, r10, r11 = rinfo reads1 in
    let store = emit_store_half pc s2 acc in
    fun fr cyc fuel ->
      let fuel = fuel - 1 in
      if fuel <= 0 then trap "out of fuel in %s" fname;
      let cyc = stall fr nr1 r10 r11 reads1 cyc in
      let dv = Regfile.uget fr.regs t8 in
      let sv = if sr >= 0 then Regfile.uget fr.regs s8 else si in
      let tv =
        Int64.logor (Int64.logand dv keep)
          (Int64.shift_left (Int64.logand sv wmask) sh)
      in
      Regfile.uset fr.regs t8 tv;
      Array.unsafe_set fr.ready t (cyc + lat1);
      store fr (cyc + issue1) fuel tv

  (* Shared store half of a compute+store pair: the caller has performed
     the first instruction completely (including its register write) and
     forwards the value; the store's base register may itself be the
     computed register, so the address read from the file is always
     correct. *)
  and emit_store_half pc (s2 : Decode.slot) (acc : Decode.access) :
      frame -> int -> int -> int64 -> int64 =
    let next = chain (pc + 2) in
    let issue2 = s2.Decode.issue in
    let reads2 = s2.Decode.reads in
    let nr2, r20, r21 = rinfo reads2 in
    let ab8 = acc.Decode.abase lsl 3 and adisp = acc.Decode.adisp in
    let wb = Int64.to_int acc.Decode.wbytes in
    let wmask = wb - 1 and lnotw = lnot (wb - 1) in
    let aligned = acc.Decode.aaligned in
    let wb8 = wb = 8 in
    let sshift = 64 - (8 * wb) in
    let lowmask = Int64.of_int ((1 lsl sshift) - 1) in
    fun fr cyc fuel tv ->
      let fuel = fuel - 1 in
      if fuel <= 0 then trap "out of fuel in %s" fname;
      let cyc = stall fr nr2 r20 r21 reads2 cyc in
      let addr = Int64.add (Regfile.uget fr.regs ab8) adisp in
      let ai = Int64.to_int addr in
      let eai = if aligned then ai else ai land lnotw in
      if
        le && ai >= 0 && eai >= 8
        && eai + wb <= msize
        && ((not aligned) || ai land wmask = 0)
      then begin
        let miss = dcache_miss eai in
        st.stores <- st.stores + 1;
        if wb8 then mset64 mb eai tv
        else begin
          let woff = eai + wb - 8 in
          mset64 mb woff
            (Int64.logor
               (Int64.logand (mget64 mb woff) lowmask)
               (Int64.shift_left tv sshift))
        end;
        next fr (cyc + miss + issue2) fuel
      end
      else begin
        let extra = slow_store st acc addr tv in
        next fr (cyc + extra + issue2) fuel
      end

  (* ---------------- generic emitter (icache modelled) ------------ *)
  (* With instruction fetch modelled, every non-pseudo instruction
     performs a per-instruction cache access at its own fetch address —
     per-instruction state that superinstructions would have to carry
     anyway, so this mode compiles one closure per instruction with no
     fusion. Same closure-threaded control flow, same bit-exact
     bookkeeping. *)
  and emit_generic ic pc (s : Decode.slot) : code =
    let issue = s.Decode.issue
    and latency = s.Decode.latency
    and reads = s.Decode.reads
    and fetch = s.Decode.fetch in
    let nr, r0, r1 = rinfo reads in
    let ipen = m.icache_miss_penalty in
    (* fuel, fetch and stalls, in the decoded interpreter's order;
       returns the stalled clock *)
    let[@inline] preg fr cyc fuel =
      if fuel <= 0 then trap "out of fuel in %s" fname;
      let cyc =
        if Int64.compare fetch 0L >= 0 then
          match Cache.access ic fetch with
          | `Hit -> cyc
          | `Miss -> cyc + ipen
        else cyc
      in
      stall fr nr r0 r1 reads cyc
    in
    let ov fr = function
      | Decode.Oreg r -> Regfile.uget fr.regs (r lsl 3)
      | Decode.Oimm v -> v
    in
    match s.Decode.op with
    | Decode.Olabel slot ->
      let next = chain (pc + 1) in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        counters.(slot) <- counters.(slot) + 1;
        next fr cyc fuel
    | Decode.Onop ->
      let next = chain (pc + 1) in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        next fr cyc fuel
    | Decode.Omove (d, src) ->
      let next = chain (pc + 1) in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        Regfile.uset fr.regs (d lsl 3) (ov fr src);
        fr.ready.(d) <- cyc + latency;
        next fr (cyc + issue) fuel
    | Decode.Obinop (op, d, a, b) ->
      let next = chain (pc + 1) in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        Regfile.uset fr.regs (d lsl 3)
          (Rtl.eval_binop op (ov fr a) (ov fr b));
        fr.ready.(d) <- cyc + latency;
        next fr (cyc + issue) fuel
    | Decode.Ounop (op, d, a) ->
      let next = chain (pc + 1) in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        Regfile.uset fr.regs (d lsl 3) (Rtl.eval_unop op (ov fr a));
        fr.ready.(d) <- cyc + latency;
        next fr (cyc + issue) fuel
    | Decode.Oload { dst; acc; sign } ->
      let next = chain (pc + 1) in
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
      let next = chain (pc + 1) in
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
      let next = chain (pc + 1) in
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
      let next = chain (pc + 1) in
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
        if t < 0 then raise Not_found;
        (Array.unsafe_get bcache t) fr (cyc + issue) fuel
    | Decode.Obranch { cmp; l; r; target } ->
      let next = chain (pc + 1) in
      fun fr cyc fuel ->
        let fuel = fuel - 1 in
        let cyc = preg fr cyc fuel in
        let cyc = cyc + issue in
        if Rtl.eval_cmp cmp (ov fr l) (ov fr r) then begin
          if target < 0 then raise Not_found;
          (Array.unsafe_get bcache target) fr cyc fuel
        end
        else next fr cyc fuel
    | Decode.Ocall { dst; func; args } ->
      let next = chain (pc + 1) in
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
