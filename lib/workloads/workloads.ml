(** The paper's benchmark suite (Table I) plus the Fig. 1 dot product.

    Each benchmark is MiniC source (compiled by the vpo pipeline for a
    chosen machine and level), a deterministic input generator, an OCaml
    reference implementation used to validate outputs, and buffer layout
    control — tests can deliberately misalign or overlap buffers to
    exercise the run-time checks.

    Sizes: the paper uses 500x500 byte images; [~size] scales the same
    shapes down for fast tests. *)

open Mac_rtl
module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp
module Machine = Mac_machine.Machine
module Disambig = Mac_core.Disambig
module Linform = Mac_opt.Linform

(* Deterministic PRNG (SplitMix64) so inputs are reproducible. *)
module Prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int (0x9E3779B9 + seed) }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
              0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
              0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let byte t = Int64.to_int (Int64.logand (next t) 0xFFL)
  let short t = Int64.to_int (Int64.logand (next t) 0x7FFFL)
end

(* A prepared run: entry arguments plus the memory regions to compare
   against the reference. *)
type instance = {
  args : int64 list;
  outputs : (string * int64 * int) list;  (** name, address, length *)
  expected : (string * Bytes.t) list;
      (** reference contents per output region *)
  expected_value : int64 option;  (** expected return value, if any *)
}

type layout = { align : int; skew : int; overlap : bool }
(** [skew] shifts every buffer start by that many bytes off [align];
    [overlap] lays input and output buffers over each other to trip the
    run-time alias checks. *)

let default_layout = { align = 8; skew = 0; overlap = false }

type t = {
  name : string;
  description : string;
  paper_loc : int;  (** lines of code reported in Table I, for the README *)
  source : string;
  entry : string;
  prepare : layout -> size:int -> Memory.t -> instance;
  facts : layout -> size:int -> Disambig.facts;
}

(* --- disambiguation facts, true by construction of [prepare] ---------

   Parameter [i] of the entry function is [Reg.make i] (the lowering
   contract). Facts are conditioned on the layout so they stay {e true}:
   alignment facts only for unskewed power-of-two layouts, allocation
   provenance only for disjoint buffers. A wrong fact here would be a
   miscompilation the differential tests (and the audit's certificate
   replay, which trusts the same facts) could not catch. *)

let lin const terms =
  List.fold_left
    (fun f (i, c) -> Linform.add f (Linform.mul_const (Linform.entry (Reg.make i)) c))
    (Linform.const const) terms

let facts_for ~aligns ~allocs ~values ~nonnegs (layout : layout) =
  let k =
    match Width.log2_exact (Int64.of_int layout.align) with
    | Some k -> k
    | None -> 0
  in
  {
    Disambig.aligns =
      (if layout.skew = 0 && k > 0 then
         List.map (fun i -> (Reg.make i, k)) aligns
       else []);
    allocs =
      (if layout.overlap then []
       else List.map (fun (i, size) -> (Reg.make i, i, size)) allocs);
    values = List.map (fun (i, v) -> (Reg.make i, v)) values;
    nonnegs = List.map Reg.make nonnegs;
  }

let alloc_buf alloc (layout : layout) n =
  if layout.skew = 0 then Memory.alloc alloc ~align:layout.align n
  else Memory.alloc_misaligned alloc ~align:layout.align ~skew:layout.skew n

let fill_bytes mem addr data = Memory.store_bytes mem ~addr data

let random_bytes prng n = Bytes.init n (fun _ -> Char.chr (Prng.byte prng))

let random_shorts prng n =
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    Bytes.set_uint16_le b (2 * i) (Prng.short prng)
  done;
  b

(* ------------------------------------------------------------------ *)
(* Fig. 1: dot product of two 16-bit vectors.                          *)

let dotproduct_src =
  {|
int dotproduct(short a[], short b[], int n) {
  int c = 0;
  int i;
  for (i = 0; i < n; i++)
    c += a[i] * b[i];
  return c;
}
|}

let dotproduct_prepare layout ~size mem =
  let n = size in
  let alloc = Memory.allocator mem in
  let a = alloc_buf alloc layout (2 * n) in
  let b =
    if layout.overlap then Int64.add a (Int64.of_int n)
    else alloc_buf alloc layout (2 * n)
  in
  let prng = Prng.create 1 in
  fill_bytes mem a (random_shorts prng n);
  fill_bytes mem b (random_shorts prng n);
  (* The reference reads the buffers as laid out, so it stays correct for
     overlapping layouts too. *)
  let ref_val = ref 0L in
  for i = 0 to n - 1 do
    let x =
      Memory.load mem ~addr:(Int64.add a (Int64.of_int (2 * i)))
        ~width:Width.W16 ~sign:Rtl.Signed
    and y =
      Memory.load mem ~addr:(Int64.add b (Int64.of_int (2 * i)))
        ~width:Width.W16 ~sign:Rtl.Signed
    in
    ref_val := Int64.add !ref_val (Int64.mul x y)
  done;
  {
    args = [ a; b; Int64.of_int n ];
    outputs = [];
    expected = [];
    expected_value = Some !ref_val;
  }

(* ------------------------------------------------------------------ *)
(* Convolution: directional gradient (columns -1 0 +1, written as taps  *)
(* x, x+1, x+2) over a byte image [Lind91].                             *)

let convolution_src =
  {|
void convolution(char in[], char out[], int h, int w1, int stride) {
  int y;
  for (y = 1; y < h - 1; y++) {
    long rm = (y - 1) * stride;
    long r0 = y * stride;
    long rp = (y + 1) * stride;
    int x;
    for (x = 0; x < w1; x++) {
      int s = in[rm + x + 2] - in[rm + x]
            + in[r0 + x + 2] + in[r0 + x + 2] - in[r0 + x] - in[r0 + x]
            + in[rp + x + 2] - in[rp + x];
      out[r0 + x] = s >> 2;
    }
  }
}
|}

(* The inner loop runs over w1 = 8 * k columns so the trip count stays a
   multiple of every widening factor. *)
let conv_w1 size = (size - 2) / 8 * 8

let convolution_reference ~h ~stride ~w1 (src : Bytes.t) =
  let out = Bytes.copy src in
  let sgn b = if b >= 128 then b - 256 else b in
  let g x = sgn (Char.code (Bytes.get src x)) in
  for y = 1 to h - 2 do
    for x = 0 to w1 - 1 do
      let rm = (y - 1) * stride and r0 = y * stride and rp = (y + 1) * stride in
      let s =
        g (rm + x + 2) - g (rm + x)
        + g (r0 + x + 2) + g (r0 + x + 2) - g (r0 + x) - g (r0 + x)
        + g (rp + x + 2) - g (rp + x)
      in
      Bytes.set out (r0 + x) (Char.chr (s asr 2 land 0xFF))
    done
  done;
  out

let convolution_prepare layout ~size mem =
  (* Rows are padded to an 8-byte pitch, the usual image-processing layout
     — with an odd stride like 500 the three row bases (y-1, y, y+1) can
     never be simultaneously wide-aligned and the alignment checks would
     send every row to the safe loop. *)
  let h = size and stride = (size + 7) / 8 * 8 in
  let w1 = conv_w1 size in
  let bytes = h * stride in
  let alloc = Memory.allocator mem in
  let src = alloc_buf alloc layout bytes in
  let dst =
    if layout.overlap then Int64.add src (Int64.of_int stride)
    else alloc_buf alloc layout bytes
  in
  let prng = Prng.create 2 in
  let data = random_bytes prng bytes in
  fill_bytes mem src data;
  if not layout.overlap then
    (* out starts as a copy so untouched border pixels compare equal *)
    fill_bytes mem dst data;
  let expected =
    if layout.overlap then []
    else [ ("out", convolution_reference ~h ~stride ~w1 data) ]
  in
  {
    args = [ src; dst; Int64.of_int h; Int64.of_int w1; Int64.of_int stride ];
    outputs = [ ("out", dst, bytes) ];
    expected;
    expected_value = None;
  }

(* ------------------------------------------------------------------ *)
(* Image add / xor: c[i] = a[i] op b[i] over byte frames.               *)

let image_binop_src name op =
  Printf.sprintf
    {|
void %s(char a[], char b[], char c[], int n) {
  int i;
  for (i = 0; i < n; i++)
    c[i] = a[i] %s b[i];
}
|}
    name op

let image_binop_reference f (a : Bytes.t) (b : Bytes.t) =
  Bytes.init (Bytes.length a) (fun i ->
      Char.chr
        (f (Char.code (Bytes.get a i)) (Char.code (Bytes.get b i)) land 0xFF))

let image_binop_prepare f seed layout ~size mem =
  let n = size * size in
  let alloc = Memory.allocator mem in
  let a = alloc_buf alloc layout n in
  let b = alloc_buf alloc layout n in
  let c =
    if layout.overlap then Int64.add a (Int64.of_int (n / 2))
    else alloc_buf alloc layout n
  in
  let prng = Prng.create seed in
  let da = random_bytes prng n and db = random_bytes prng n in
  fill_bytes mem a da;
  fill_bytes mem b db;
  let expected =
    if layout.overlap then [] else [ ("c", image_binop_reference f da db) ]
  in
  {
    args = [ a; b; c; Int64.of_int n ];
    outputs = [ ("c", c, n) ];
    expected;
    expected_value = None;
  }

(* 16-bit variant of image add (Table II row "Image add (16-bit)"). *)
let image_add16_src =
  {|
void image_add16(short a[], short b[], short c[], int n) {
  int i;
  for (i = 0; i < n; i++)
    c[i] = a[i] + b[i];
}
|}

let image_add16_reference (a : Bytes.t) (b : Bytes.t) =
  let n = Bytes.length a / 2 in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let x = Bytes.get_uint16_le a (2 * i)
    and y = Bytes.get_uint16_le b (2 * i) in
    Bytes.set_uint16_le out (2 * i) ((x + y) land 0xFFFF)
  done;
  out

let image_add16_prepare layout ~size mem =
  let n = size * size in
  let alloc = Memory.allocator mem in
  let a = alloc_buf alloc layout (2 * n) in
  let b = alloc_buf alloc layout (2 * n) in
  let c =
    if layout.overlap then Int64.add a (Int64.of_int n)
    else alloc_buf alloc layout (2 * n)
  in
  let prng = Prng.create 5 in
  let da = random_shorts prng n and db = random_shorts prng n in
  fill_bytes mem a da;
  fill_bytes mem b db;
  let expected =
    if layout.overlap then [] else [ ("c", image_add16_reference da db) ]
  in
  {
    args = [ a; b; c; Int64.of_int n ];
    outputs = [ ("c", c, 2 * n) ];
    expected;
    expected_value = None;
  }

(* ------------------------------------------------------------------ *)
(* Translate: move the image to a new position (dst[i] = src[i + k]).   *)

let translate_src =
  {|
void translate(char src[], char dst[], int n, int k) {
  int i;
  for (i = 0; i < n; i++)
    dst[i] = src[i + k];
}
|}

let translate_k = 24

let translate_prepare layout ~size mem =
  let n = size * size in
  let k = translate_k in
  let alloc = Memory.allocator mem in
  let src = alloc_buf alloc layout (n + k) in
  let dst =
    if layout.overlap then Int64.add src 8L else alloc_buf alloc layout n
  in
  let prng = Prng.create 6 in
  let data = random_bytes prng (n + k) in
  fill_bytes mem src data;
  let expected =
    if layout.overlap then [] else [ ("dst", Bytes.sub data k n) ]
  in
  {
    args = [ src; dst; Int64.of_int n; Int64.of_int k ];
    outputs = [ ("dst", dst, n) ];
    expected;
    expected_value = None;
  }

(* ------------------------------------------------------------------ *)
(* Mirror: dst[i] = src[n - 1 - i].                                     *)

let mirror_src =
  {|
void mirror(char src[], char dst[], int n) {
  int i;
  for (i = 0; i < n; i++)
    dst[i] = src[n - 1 - i];
}
|}

let mirror_prepare layout ~size mem =
  let n = size * size in
  let alloc = Memory.allocator mem in
  let src = alloc_buf alloc layout n in
  let dst =
    if layout.overlap then Int64.add src (Int64.of_int (n / 2))
    else alloc_buf alloc layout n
  in
  let prng = Prng.create 7 in
  let data = random_bytes prng n in
  fill_bytes mem src data;
  let expected =
    if layout.overlap then []
    else [ ("dst", Bytes.init n (fun i -> Bytes.get data (n - 1 - i))) ]
  in
  {
    args = [ src; dst; Int64.of_int n ];
    outputs = [ ("dst", dst, n) ];
    expected;
    expected_value = None;
  }

(* ------------------------------------------------------------------ *)
(* Eqntott kernel: canonicalise bit-vector points (a coalesceable        *)
(* load+store loop), then a cmppt-style comparison sweep with early      *)
(* exit (not coalesceable) — the mix behind the paper's small net        *)
(* speedup on eqntott.                                                   *)

let eqntott_src =
  {|
int eqntott(short pts[], int npt, int nvars, int passes) {
  int total = npt * nvars;
  int i;
  for (i = 0; i < total; i++)
    pts[i] = pts[i] & 3;
  int inv = 0;
  int pass;
  for (pass = 0; pass < passes; pass++) {
    int p;
    for (p = 0; p + 1 < npt; p++) {
      int base = p * nvars;
      int r = 0;
      int j;
      for (j = 0; j < nvars; j++) {
        short x = pts[base + j];
        short y = pts[base + nvars + j];
        if (x != y) {
          r = (x < y) ? 0 - 1 : 1;
          break;
        }
      }
      inv += r;
    }
  }
  return inv;
}
|}

let eqntott_reference (pts : Bytes.t) ~npt ~nvars ~passes =
  let n = npt * nvars in
  let v = Array.init n (fun i -> Bytes.get_uint16_le pts (2 * i) land 3) in
  let out = Bytes.create (2 * n) in
  Array.iteri (fun i x -> Bytes.set_uint16_le out (2 * i) x) v;
  let inv = ref 0 in
  for p = 0 to npt - 2 do
    let rec cmp j =
      if j >= nvars then 0
      else
        let x = v.((p * nvars) + j)
        and y = v.(((p + 1) * nvars) + j) in
        if x <> y then if x < y then -1 else 1 else cmp (j + 1)
    in
    inv := !inv + cmp 0
  done;
  (out, Int64.of_int (!inv * passes))

let eqntott_prepare layout ~size mem =
  (* size^2 total shorts, as points of 16 variables each. cmppt is invoked
     over the point list [passes] times (in real eqntott the sort calls it
     O(npt log npt) times), and adjacent points share long prefixes so each
     comparison scans most of its variables — the comparison sweep
     dominates and the coalesceable canonicalisation pass is a small
     fraction, which is what keeps the paper's eqntott speedup small. *)
  let nvars = 16 in
  let passes = 4 in
  let npt = Stdlib.max 2 (size * size / nvars) in
  let n = npt * nvars in
  let alloc = Memory.allocator mem in
  let pts = alloc_buf alloc layout (2 * n) in
  let prng = Prng.create 8 in
  let data = Bytes.create (2 * n) in
  for p = 0 to npt - 1 do
    for j = 0 to nvars - 1 do
      let v =
        if j < nvars - 2 then j land 3 else Prng.short prng land 3
      in
      Bytes.set_uint16_le data (2 * ((p * nvars) + j)) v
    done
  done;
  fill_bytes mem pts data;
  let expected_pts, expected_value =
    eqntott_reference data ~npt ~nvars ~passes
  in
  {
    args =
      [ pts; Int64.of_int npt; Int64.of_int nvars; Int64.of_int passes ];
    outputs = [ ("pts", pts, 2 * n) ];
    expected = [ ("pts", expected_pts) ];
    expected_value = Some expected_value;
  }

(* ------------------------------------------------------------------ *)
(* Per-benchmark facts, matching each [prepare] above.                  *)

let dotproduct_facts layout ~size:_ =
  facts_for layout ~aligns:[ 0; 1 ]
    ~allocs:[ (0, lin 0L [ (2, 2L) ]); (1, lin 0L [ (2, 2L) ]) ]
    ~values:[] ~nonnegs:[ 2 ]

let convolution_facts layout ~size =
  (* the allocation size h*stride is not linear in the parameters, so no
     provenance facts; the structurally fixed pitch is a value fact *)
  let stride = (size + 7) / 8 * 8 in
  facts_for layout ~aligns:[ 0; 1 ] ~allocs:[]
    ~values:[ (4, Int64.of_int stride) ]
    ~nonnegs:[ 2; 3; 4 ]

let image_binop_facts layout ~size:_ =
  facts_for layout
    ~aligns:[ 0; 1; 2 ]
    ~allocs:
      [
        (0, lin 0L [ (3, 1L) ]);
        (1, lin 0L [ (3, 1L) ]);
        (2, lin 0L [ (3, 1L) ]);
      ]
    ~values:[] ~nonnegs:[ 3 ]

let image_add16_facts layout ~size:_ =
  facts_for layout
    ~aligns:[ 0; 1; 2 ]
    ~allocs:
      [
        (0, lin 0L [ (3, 2L) ]);
        (1, lin 0L [ (3, 2L) ]);
        (2, lin 0L [ (3, 2L) ]);
      ]
    ~values:[] ~nonnegs:[ 3 ]

let translate_facts layout ~size:_ =
  facts_for layout ~aligns:[ 0; 1 ]
    ~allocs:
      [ (0, lin 0L [ (2, 1L); (3, 1L) ]); (1, lin 0L [ (2, 1L) ]) ]
    ~values:[ (3, Int64.of_int translate_k) ]
    ~nonnegs:[ 2; 3 ]

let eqntott_facts layout ~size:_ =
  (* npt * nvars is not linear, so no provenance; nvars is structural *)
  facts_for layout ~aligns:[ 0 ] ~allocs:[] ~values:[ (2, 16L) ]
    ~nonnegs:[ 1; 2; 3 ]

let mirror_facts layout ~size:_ =
  facts_for layout ~aligns:[ 0; 1 ]
    ~allocs:[ (0, lin 0L [ (2, 1L) ]); (1, lin 0L [ (2, 1L) ]) ]
    ~values:[] ~nonnegs:[ 2 ]

let all : t list =
  [
    {
      name = "convolution";
      description =
        "Gradient directional edge convolution of a 500 by 500 black and \
         white image [Lind91]";
      paper_loc = 154;
      source = convolution_src;
      entry = "convolution";
      prepare = convolution_prepare;
      facts = convolution_facts;
    };
    {
      name = "image_add";
      description = "Image addition of two 500 by 500 black and white frames";
      paper_loc = 48;
      source = image_binop_src "image_add" "+";
      entry = "image_add";
      prepare = image_binop_prepare ( + ) 3;
      facts = image_binop_facts;
    };
    {
      name = "image_add16";
      description = "Image addition of two 500 by 500 frames, 16-bit pixels";
      paper_loc = 48;
      source = image_add16_src;
      entry = "image_add16";
      prepare = image_add16_prepare;
      facts = image_add16_facts;
    };
    {
      name = "image_xor";
      description = "Image xor of two 500 by 500 black and white frames";
      paper_loc = 48;
      source = image_binop_src "image_xor" "^";
      entry = "image_xor";
      prepare = image_binop_prepare ( lxor ) 4;
      facts = image_binop_facts;
    };
    {
      name = "translate";
      description =
        "Translate a 500 by 500 black and white image to a new position";
      paper_loc = 48;
      source = translate_src;
      entry = "translate";
      prepare = translate_prepare;
      facts = translate_facts;
    };
    {
      name = "eqntott";
      description =
        "SPEC'89 eqntott kernel: bit-vector canonicalisation plus cmppt \
         comparison sweep";
      paper_loc = 146;
      source = eqntott_src;
      entry = "eqntott";
      prepare = eqntott_prepare;
      facts = eqntott_facts;
    };
    {
      name = "mirror";
      description = "Mirror image of a 500 by 500 black and white image";
      paper_loc = 50;
      source = mirror_src;
      entry = "mirror";
      prepare = mirror_prepare;
      facts = mirror_facts;
    };
  ]

let dotproduct : t =
  {
    name = "dotproduct";
    description = "Fig. 1 dot product of two 16-bit vectors";
    paper_loc = 8;
    source = dotproduct_src;
    entry = "dotproduct";
    prepare = dotproduct_prepare;
    facts = dotproduct_facts;
  }

let find name =
  List.find_opt (fun b -> String.equal b.name name) (dotproduct :: all)

(* ------------------------------------------------------------------ *)
(* Running                                                              *)

type outcome = {
  value : int64;
  metrics : Interp.metrics;
  reports : (string * Mac_core.Coalesce.loop_report list) list;
  sched_reports :
    (string
    * (Mac_opt.Pipeline_sched.report * Mac_opt.Pipeline_sched.cert option)
      list)
      list;
  diags : (string * Mac_verify.Diagnostic.t list) list;
  compile_seconds : float;
  pass_seconds : (string * float) list;
  tvalid_stats : (string * Mac_verify.Tvalid.agg) list;
  sim_seconds : float;
  sim_phases : (string * float) list;
  correct : bool;
  error : string option;
}

let verify mem instance value =
  let problems = ref [] in
  (match instance.expected_value with
  | Some e when not (Int64.equal e value) ->
    problems :=
      Printf.sprintf "return value %Ld, expected %Ld" value e :: !problems
  | _ -> ());
  List.iter
    (fun (name, expected) ->
      match
        List.find_opt (fun (n, _, _) -> String.equal n name) instance.outputs
      with
      | None -> ()
      | Some (_, addr, len) ->
        let got = Memory.load_bytes mem ~addr ~len in
        if not (Bytes.equal got expected) then begin
          let diffs = ref 0 in
          Bytes.iteri
            (fun i c -> if c <> Bytes.get expected i then incr diffs)
            got;
          problems :=
            Printf.sprintf "output %s differs in %d of %d byte(s)" name
              !diffs len
            :: !problems
        end)
    instance.expected;
  match !problems with [] -> None | ps -> Some (String.concat "; " ps)

let mem_size_for ~size =
  let want = (size * size * 8) + (1 lsl 16) in
  let rec pow2 n = if n >= want then n else pow2 (2 * n) in
  pow2 (1 lsl 16)

let run_mem ?(layout = default_layout) ?(size = 100) ?coalesce
    ?legalize_first ?strength_reduce ?regalloc ?schedule ?pipeline_sched
    ?verify:vlevel ?model_icache ?engine ?(assume_layout = false)
    ?(force_guards = false) ~machine ~level bench =
  let coalesce =
    if force_guards then
      Some
        {
          (Option.value coalesce ~default:Mac_core.Coalesce.default) with
          Mac_core.Coalesce.force_guards = true;
        }
    else coalesce
  in
  let facts =
    if assume_layout then [ (bench.entry, bench.facts layout ~size) ]
    else []
  in
  let cfg =
    Mac_vpo.Pipeline.config ~level ?coalesce ?legalize_first
      ?strength_reduce ?regalloc ?schedule ?pipeline_sched ?verify:vlevel
      ~facts machine
  in
  let compiled = Mac_vpo.Pipeline.compile_source cfg bench.source in
  let mem = Memory.create ~size:(mem_size_for ~size) in
  let instance = bench.prepare layout ~size mem in
  let result =
    Interp.run ~machine ~memory:mem compiled.funcs ~entry:bench.entry
      ~args:instance.args ?model_icache ?engine ()
  in
  let error = verify mem instance result.value in
  ( {
      value = result.value;
      metrics = result.metrics;
      reports = compiled.reports;
      sched_reports = compiled.sched_reports;
      diags = compiled.diags;
      compile_seconds = compiled.compile_seconds;
      pass_seconds = compiled.pass_seconds;
      tvalid_stats = compiled.tvalid_stats;
      sim_seconds =
        List.fold_left (fun acc (_, s) -> acc +. s) 0.0 result.phases;
      sim_phases = result.phases;
      correct = error = None;
      error;
    },
    mem )

let run ?layout ?size ?coalesce ?legalize_first ?strength_reduce ?regalloc
    ?schedule ?pipeline_sched ?verify ?model_icache ?engine ?assume_layout
    ?force_guards ~machine ~level bench =
  fst
    (run_mem ?layout ?size ?coalesce ?legalize_first ?strength_reduce
       ?regalloc ?schedule ?pipeline_sched ?verify ?model_icache ?engine
       ?assume_layout ?force_guards ~machine ~level bench)

let run_exn ?layout ?size ?coalesce ?legalize_first ?strength_reduce
    ?regalloc ?schedule ?pipeline_sched ?verify ?model_icache ?engine
    ?assume_layout ?force_guards ~machine ~level bench =
  let o =
    run ?layout ?size ?coalesce ?legalize_first ?strength_reduce ?regalloc
      ?schedule ?pipeline_sched ?verify ?model_icache ?engine
      ?assume_layout ?force_guards ~machine ~level bench
  in
  (match o.error with
  | Some e -> failwith (Printf.sprintf "%s: %s" bench.name e)
  | None -> ());
  o

(* ------------------------------------------------------------------ *)
(* Static estimation: compile + prepare, no simulation                  *)

type prediction = {
  summary : Mac_dataflow.Reuse.summary;
  est_seconds : float;
  est_compile_seconds : float;
}

(* The estimator's oracle over the prepared (but never simulated) memory
   image: zero-extended little-endian reads, [None] outside the mapped
   range — exactly what the simulator would fault on. *)
let read_oracle mem =
  let msize = Int64.of_int (Memory.size mem) in
  fun addr bytes ->
    if bytes < 1 || bytes > 8 then None
    else if Int64.compare addr 8L < 0 then None
    else if Int64.compare (Int64.add addr (Int64.of_int bytes)) msize > 0
    then None
    else begin
      let b = Memory.load_bytes mem ~addr ~len:bytes in
      let v = ref 0L in
      for i = bytes - 1 downto 0 do
        v :=
          Int64.logor (Int64.shift_left !v 8)
            (Int64.of_int (Char.code (Bytes.get b i)))
      done;
      Some !v
    end

let estimate ?(layout = default_layout) ?(size = 100) ?coalesce
    ?legalize_first ?strength_reduce ?regalloc ?schedule ?model_icache
    ?(assume_layout = false) ?(force_guards = false) ~machine ~level bench =
  let coalesce =
    if force_guards then
      Some
        {
          (Option.value coalesce ~default:Mac_core.Coalesce.default) with
          Mac_core.Coalesce.force_guards = true;
        }
    else coalesce
  in
  let facts =
    if assume_layout then [ (bench.entry, bench.facts layout ~size) ]
    else []
  in
  let cfg =
    Mac_vpo.Pipeline.config ~level ?coalesce ?legalize_first
      ?strength_reduce ?regalloc ?schedule ~facts machine
  in
  let compiled = Mac_vpo.Pipeline.compile_source cfg bench.source in
  let mem = Memory.create ~size:(mem_size_for ~size) in
  let instance = bench.prepare layout ~size mem in
  let read = read_oracle mem in
  let resolve name =
    List.find_opt
      (fun (f : Func.t) -> String.equal f.Func.name name)
      compiled.funcs
  in
  let t0 = Monotonic_clock.now () in
  let summary =
    match List.assoc_opt bench.entry compiled.ams with
    | Some am ->
      Mac_core.Estimate.via am ?model_icache ~read ~resolve ~machine
        ~args:instance.args ()
    | None -> (
      match resolve bench.entry with
      | Some f ->
        Mac_core.Estimate.func ?model_icache ~read ~resolve ~machine
          ~args:instance.args f
      | None ->
        invalid_arg
          (Printf.sprintf "estimate: no function %S in %s" bench.entry
             bench.name))
  in
  {
    summary;
    est_seconds =
      Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9;
    est_compile_seconds = compiled.compile_seconds;
  }

(* ------------------------------------------------------------------ *)
(* Differential execution                                               *)

type differential = {
  base : outcome;  (** the O0 run *)
  opt : outcome;  (** the optimized run *)
  agree : bool;
  detail : string option;  (** first observed divergence *)
}

(* The bump allocator hands out workload buffers from address 64 up;
   below that nothing is mapped for the program, so the heap comparison
   starts there. Register allocation is deliberately not part of the
   differential configuration: spill frames live in memory and would
   differ between levels without being observable program state. *)
let differential ?layout ?size ?coalesce ?legalize_first ?strength_reduce
    ?schedule ?pipeline_sched ?verify ?engine ?assume_layout ?force_guards
    ~machine ~level bench =
  let go level =
    run_mem ?layout ?size ?coalesce ?legalize_first ?strength_reduce
      ?schedule ?pipeline_sched ?verify ?engine ?assume_layout
      ?force_guards ~machine ~level bench
  in
  let base, mem_base = go Mac_vpo.Pipeline.O0 in
  let opt, mem_opt = go level in
  let detail =
    if not (Int64.equal base.value opt.value) then
      Some
        (Printf.sprintf "return value %Ld at O0 but %Ld at %s" base.value
           opt.value
           (Mac_vpo.Pipeline.level_to_string level))
    else begin
      let len = min (Memory.size mem_base) (Memory.size mem_opt) - 64 in
      let a = Memory.load_bytes mem_base ~addr:64L ~len in
      let b = Memory.load_bytes mem_opt ~addr:64L ~len in
      if Bytes.equal a b then None
      else begin
        let at = ref (-1) in
        (try
           for i = 0 to len - 1 do
             if Bytes.get a i <> Bytes.get b i then begin
               at := i + 64;
               raise Exit
             end
           done
         with Exit -> ());
        Some
          (Printf.sprintf
             "heap byte at address %d differs between O0 and %s" !at
             (Mac_vpo.Pipeline.level_to_string level))
      end
    end
  in
  { base; opt; agree = detail = None; detail }
