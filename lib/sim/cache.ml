(* Direct-mapped cache model. Tags are kept as ints: every address the
   simulator can access without faulting fits comfortably (memory images
   are far below 2^62 bytes, synthetic code addresses grow linearly), so
   int arithmetic replaces boxed Int64 division in the hot path. All real
   machine geometries have power-of-two line size and set count, turning
   the index computation into a shift and a mask. *)

type t = {
  line_bytes : int;
  lines : int array;  (* tag per set; -1 = invalid *)
  line_shift : int;  (* log2 line_bytes, or -1 when not a power of two *)
  set_mask : int;  (* set count - 1, valid when line_shift >= 0 *)
  mutable hits : int;
  mutable misses : int;
}

let log2_exact n =
  if n > 0 && n land (n - 1) = 0 then begin
    let rec go k v = if v = 1 then k else go (k + 1) (v lsr 1) in
    Some (go 0 n)
  end
  else None

let create (d : Mac_machine.Machine.dcache) =
  let n_lines = Stdlib.max 1 (d.size_bytes / d.line_bytes) in
  let line_shift, set_mask =
    match (log2_exact d.line_bytes, log2_exact n_lines) with
    | Some s, Some _ -> (s, n_lines - 1)
    | _ -> (-1, 0)
  in
  {
    line_bytes = d.line_bytes;
    lines = Array.make n_lines (-1);
    line_shift;
    set_mask;
    hits = 0;
    misses = 0;
  }

let access t addr =
  let line, set =
    if t.line_shift >= 0 && Int64.compare addr 0L >= 0 then begin
      (* the common case: non-negative address, power-of-two geometry *)
      let line = Int64.to_int addr lsr t.line_shift in
      (line, line land t.set_mask)
    end
    else begin
      (* wild addresses (about to fault anyway) and odd geometries *)
      let line =
        Int64.to_int (Int64.div addr (Int64.of_int t.line_bytes))
      in
      let n = Array.length t.lines in
      (line, ((line mod n) + n) mod n)
    end
  in
  if t.lines.(set) = line then begin
    t.hits <- t.hits + 1;
    `Hit
  end
  else begin
    t.lines.(set) <- line;
    t.misses <- t.misses + 1;
    `Miss
  end

let hits t = t.hits
let misses t = t.misses
