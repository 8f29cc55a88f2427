(* The random MiniC loop kernels the property suites share: three
   arrays of mixed element types, one to four statements over them, a
   trip count of 1 to 40, and buffer bases that are skewed off 8-byte
   alignment and often overlap. test_props checks every optimization
   level against O0 on them; test_engine checks the jit against the
   simulator oracle. *)

open Mac_rtl
module Memory = Mac_sim.Memory
module Interp = Mac_sim.Interp
module Pipeline = Mac_vpo.Pipeline

(* --- random kernel specification --- *)

type elem = Echar | Euchar | Eshort | Eushort | Eint

let elem_src = function
  | Echar -> "char"
  | Euchar -> "unsigned char"
  | Eshort -> "short"
  | Eushort -> "unsigned short"
  | Eint -> "int"

let elem_bytes = function
  | Echar | Euchar -> 1
  | Eshort | Eushort -> 2
  | Eint -> 4

(* Expressions over the loop index and the three arrays. *)
type expr =
  | Load of int * int  (* array index 0..2, element offset 0..2 *)
  | Index  (* the loop variable *)
  | Lit of int
  | Bin of string * expr * expr

type stmt = {
  dst : int;  (* array written *)
  dst_off : int;
  rhs : expr;
  in_place_op : string option;  (* Some "+" for c[i] += rhs *)
}

type kernel = {
  elems : elem array;  (* element type of each of the three arrays *)
  stmts : stmt list;
  n : int;  (* trip count *)
  skews : int array;  (* byte offset of each buffer from 8-alignment *)
  bases : int array;  (* buffer base addresses (may overlap) *)
}

let rec expr_src = function
  | Load (a, off) ->
    Printf.sprintf "%c[i + %d]" (Char.chr (Char.code 'a' + a)) off
  | Index -> "i"
  | Lit v -> Printf.sprintf "%d" v
  | Bin (op, x, y) -> Printf.sprintf "(%s %s %s)" (expr_src x) op (expr_src y)

let kernel_src k =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "void kernel(";
  Array.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf "%s %c[], " (elem_src e) (Char.chr (Char.code 'a' + i))))
    k.elems;
  Buffer.add_string buf "int n) {\n  int i;\n  for (i = 0; i < n; i++) {\n";
  List.iter
    (fun s ->
      let lhs =
        Printf.sprintf "%c[i + %d]" (Char.chr (Char.code 'a' + s.dst))
          s.dst_off
      in
      match s.in_place_op with
      | Some op ->
        Buffer.add_string buf
          (Printf.sprintf "    %s %s= %s;\n" lhs op (expr_src s.rhs))
      | None ->
        Buffer.add_string buf
          (Printf.sprintf "    %s = %s;\n" lhs (expr_src s.rhs)))
    k.stmts;
  Buffer.add_string buf "  }\n}\n";
  Buffer.contents buf

(* --- generation --- *)

let gen_kernel =
  let open QCheck.Gen in
  let gen_expr =
    let rec go depth =
      if depth = 0 then
        oneof
          [
            map2 (fun a off -> Load (a, off)) (int_bound 2) (int_bound 2);
            return Index;
            map (fun v -> Lit (v - 32)) (int_bound 64);
          ]
      else
        frequency
          [
            (2, go 0);
            ( 3,
              let* op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
              let* x = go (depth - 1) in
              let* y = go (depth - 1) in
              return (Bin (op, x, y)) );
          ]
    in
    go 2
  in
  let gen_stmt =
    let* dst = int_bound 2 in
    let* dst_off = int_bound 2 in
    let* rhs = gen_expr in
    let* in_place =
      frequency
        [ (3, return None); (1, map Option.some (oneofl [ "+"; "^"; "&" ])) ]
    in
    return { dst; dst_off; rhs; in_place_op = in_place }
  in
  let* elems =
    array_repeat 3 (oneofl [ Echar; Euchar; Eshort; Eushort; Eint ])
  in
  let* stmts = list_size (int_range 1 4) gen_stmt in
  let* n = int_range 1 40 in
  (* skew each buffer by a multiple of its element size so the element
     accesses themselves stay aligned, while wide windows often are not *)
  let* skew_units = array_repeat 3 (int_bound 7) in
  let skews =
    Array.mapi (fun i u -> u * elem_bytes elems.(i) mod 8) skew_units
  in
  (* buffers at close, possibly overlapping positions *)
  let* raw_bases = array_repeat 3 (int_range 0 2) in
  let* spread = oneofl [ 512; 64 ] (* 64: likely overlap *) in
  let bases =
    Array.mapi (fun i r -> 1024 + (r * spread) + skews.(i)) raw_bases
  in
  return { elems; stmts; n; skews; bases }

let arbitrary_kernel =
  QCheck.make ~print:(fun k ->
      Printf.sprintf "%s\nn=%d bases=%s" (kernel_src k) k.n
        (String.concat ","
           (Array.to_list (Array.map string_of_int k.bases))))
    gen_kernel

(* --- execution --- *)

let mem_size = 8192

let fresh_memory k =
  let mem = Memory.create ~size:mem_size in
  (* deterministic pseudo-random fill derived from the kernel shape *)
  let seed = ref (Hashtbl.hash (kernel_src k, k.n, k.bases)) in
  for addr = 8 to mem_size - 1 do
    seed := (!seed * 1103515245) + 12345;
    Memory.store mem ~addr:(Int64.of_int addr) ~width:Width.W8
      (Int64.of_int (!seed lsr 16 land 0xFF))
  done;
  mem

let kernel_args k =
  Array.to_list (Array.map Int64.of_int k.bases) @ [ Int64.of_int k.n ]

(* Run compiled [funcs] on [k]'s fresh memory image with [sim] (the jit
   unless the oracle is passed): the result and the heap above the null
   page, or the trap message. *)
let exec ?(sim = Interp.run) ?model_icache k ~machine funcs =
  let mem = fresh_memory k in
  match
    sim ~machine ~memory:mem funcs ~entry:"kernel" ~args:(kernel_args k)
      ?model_icache ()
  with
  | r -> Ok (r, Memory.load_bytes mem ~addr:8L ~len:(mem_size - 9))
  | exception Interp.Trap msg -> Error msg

(* Compile [k] at [level] with the default configuration, then {!exec}. *)
let run_kernel ?sim ?model_icache k ~machine ~level =
  let compiled =
    Pipeline.compile_source (Pipeline.config ~level machine) (kernel_src k)
  in
  exec ?sim ?model_icache k ~machine compiled.funcs
