(* Tests for the static estimation stack: the pure line-counting model
   (Reuse) pinned against brute-force enumeration, the shared JSON
   kernel (Jsonio) pinned by an emit/parse round trip, the
   whole-function estimator pinned against the simulator on random
   affine kernels, and the estimation sweep with its accuracy contract
   (Estcells). *)

open Mac_rtl
module Reuse = Mac_dataflow.Reuse
module Estimate = Mac_core.Estimate
module Machine = Mac_machine.Machine
module Interp = Mac_sim.Interp
module Memory = Mac_sim.Memory
module Jsonio = Mac_workloads.Jsonio
module Estcells = Mac_workloads.Estcells
module W = Mac_workloads.Workloads

let reg = Reg.make

let func_of ?(params = [ reg 0; reg 1 ]) kinds =
  let f = Func.create ~name:"k" ~params in
  List.iter (Func.append f) kinds;
  f

(* --- the line-counting model vs brute force -------------------------- *)

(* Floor division, so negative offsets land on the right line. *)
let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)

let brute_lines ~line ~stride ~count windows =
  let tbl = Hashtbl.create 97 in
  for i = 0 to count - 1 do
    List.iter
      (fun (o, w) ->
        let lo = o + (i * stride) in
        for l = fdiv lo line to fdiv (lo + w - 1) line do
          Hashtbl.replace tbl l ()
        done)
      windows
  done;
  Hashtbl.length tbl

let brute_lines_cold ~line ~stride ~count windows =
  let total = ref 0 in
  for i = 0 to count - 1 do
    let tbl = Hashtbl.create 17 in
    List.iter
      (fun (o, w) ->
        let lo = o + (i * stride) in
        for l = fdiv lo line to fdiv (lo + w - 1) line do
          Hashtbl.replace tbl l ()
        done)
      windows;
    total := !total + Hashtbl.length tbl
  done;
  !total

let gen_sweep =
  let open QCheck.Gen in
  let* line = oneofl [ 16; 32 ] in
  let* stride = int_range (-48) 48 in
  let* count = int_range 1 120 in
  let* windows =
    list_size (int_range 1 4) (pair (int_range 0 200) (int_range 1 24))
  in
  return (line, stride, count, windows)

let arbitrary_sweep =
  QCheck.make
    ~print:(fun (line, stride, count, windows) ->
      Printf.sprintf "line=%d stride=%d count=%d windows=[%s]" line stride
        count
        (String.concat "; "
           (List.map (fun (o, w) -> Printf.sprintf "(%d,%d)" o w) windows)))
    gen_sweep

let sweep_tests =
  [
    QCheck.Test.make ~count:500 ~name:"sweep_lines = brute-force union"
      arbitrary_sweep
      (fun (line, stride, count, windows) ->
        Reuse.sweep_lines ~line ~stride ~count windows
        = brute_lines ~line ~stride ~count windows);
    QCheck.Test.make ~count:500 ~name:"sweep_lines_cold = brute-force sum"
      arbitrary_sweep
      (fun (line, stride, count, windows) ->
        Reuse.sweep_lines_cold ~line ~stride ~count windows
        = brute_lines_cold ~line ~stride ~count windows);
  ]

let test_classify () =
  let acc stride =
    { Reuse.start = 0; stride; width = 4; count = 16; loads = 1; stores = 0 }
  in
  let check name want stride =
    Alcotest.(check string) name want
      (Reuse.klass_to_string (Reuse.classify ~line:16 (acc stride)))
  in
  check "stride 0 is temporal" (Reuse.klass_to_string Reuse.Temporal) 0;
  check "short stride is spatial" (Reuse.klass_to_string Reuse.Spatial) 4;
  check "negative short stride is spatial"
    (Reuse.klass_to_string Reuse.Spatial) (-4);
  check "non-multiple long stride is strided"
    (Reuse.klass_to_string Reuse.Strided) 24;
  check "line-multiple stride is streaming"
    (Reuse.klass_to_string Reuse.Streaming) 32

(* --- the shared JSON kernel ------------------------------------------ *)

let gen_json =
  let open QCheck.Gen in
  (* Strings exercise the quote/backslash/control escapes the artifacts
     can contain; "render and parse keep every byte" covers the rest. *)
  let str_g =
    string_size
      ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '\n'; '\t'; '\r'; '{' ])
      (int_range 0 8)
  in
  (* Dyadic rationals round-trip exactly through both the %.0f whole
     number form and the %.17g fallback. *)
  let num_g =
    map
      (fun (a, b) -> float_of_int a /. float_of_int (1 lsl b))
      (pair (int_range (-1_000_000) 1_000_000) (int_range 0 12))
  in
  let leaf =
    oneof
      [
        return Jsonio.Null;
        map (fun b -> Jsonio.Bool b) bool;
        map (fun f -> Jsonio.Num f) num_g;
        map (fun s -> Jsonio.Str s) str_g;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map
                   (fun l -> Jsonio.Arr l)
                   (list_size (int_range 0 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun l -> Jsonio.Obj l)
                   (list_size (int_range 0 4) (pair str_g (self (n / 2)))) );
             ])

let json_roundtrip_test =
  QCheck.Test.make ~count:500 ~name:"render/parse round trip"
    (QCheck.make ~print:Jsonio.render gen_json)
    (fun v ->
      match Jsonio.parse (Jsonio.render v) with
      | Ok v' -> v' = v
      | Error _ -> false)

(* The run-scanning kernel against the per-character one it replaced
   (test/jsonio_oracle.ml): the same bytes out of [render] and [str],
   and the same value or the same error, at the same byte, out of
   [parse]. Strings carry every control byte, NUL and 0xff; the texts
   are renderings, renderings cut short or with one byte replaced, and
   token soup with [\u] escapes. *)
let any_byte_str_g =
  let open QCheck.Gen in
  string_size
    ~gen:
      (frequency
         [ (4, oneofl [ 'a'; ' '; '"'; '\\'; '/'; '\n'; '\t'; '\r'; '\xff' ]);
           (2, map Char.chr (int_range 0 0x1f));
           (1, char) ])
    (int_range 0 12)

let gen_text =
  let open QCheck.Gen in
  let soup =
    map (String.concat "")
      (list_size (int_range 0 12)
         (oneofl
            [ "{"; "}"; "["; "]"; ":"; ","; "\""; "\\"; "\\u"; "\\u00";
              "\\u0041"; "\\u00e9"; "\\ud83d"; "\\ude00"; "\\u12g4"; "\\n";
              "\\/"; "\\x"; "u"; "00"; "1"; "-"; "+";
              "."; "e"; "2.5E-3"; " "; "\n"; "\000"; "\xff"; "true"; "fals";
              "null"; "nul"; "\"k\""; "\"\\\"" ]))
  in
  let rendered = map Jsonio.render gen_json in
  let cut =
    map2
      (fun t k -> String.sub t 0 (k mod (String.length t + 1)))
      rendered nat
  in
  let replaced =
    map3
      (fun t k c ->
        if t = "" then t
        else
          let b = Bytes.of_string t in
          Bytes.set b (k mod Bytes.length b) c;
          Bytes.to_string b)
      rendered nat
      (oneofl [ '"'; '\\'; '}'; ']'; ','; ':'; ' '; 'x'; '\000'; '\xff' ])
  in
  frequency [ (2, rendered); (2, cut); (2, replaced); (3, soup) ]

let json_oracle_render_test =
  QCheck.Test.make ~count:500 ~name:"render and str match the oracle"
    (QCheck.make ~print:Jsonio_oracle.render
       QCheck.Gen.(
         pair gen_json any_byte_str_g
         |> map (fun (v, s) -> Jsonio.Arr [ v; Jsonio.Str s; Jsonio.Obj [ (s, v) ] ])))
    (fun v ->
      String.equal (Jsonio.render v) (Jsonio_oracle.render v)
      && List.for_all
           (function
             | Jsonio.Str s -> String.equal (Jsonio.str s) (Jsonio_oracle.str s)
             | _ -> true)
           (match v with Jsonio.Arr l -> l | _ -> []))

(* Every byte string survives render -> parse: the control bytes that
   [render] writes as [\u00XX] decode back to the byte. *)
let json_string_roundtrip_test =
  QCheck.Test.make ~count:1000 ~name:"render and parse keep every byte"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         oneof [ any_byte_str_g; string_size ~gen:char (int_range 0 32) ]))
    (fun s -> Jsonio.parse (Jsonio.render (Jsonio.Str s)) = Ok (Jsonio.Str s))

let json_oracle_parse_test =
  QCheck.Test.make ~count:2000 ~name:"parse matches the oracle"
    (QCheck.make ~print:String.escaped gen_text)
    (fun t -> compare (Jsonio.parse t) (Jsonio_oracle.parse t) = 0)

(* Pinned cases of the property above, error positions included. *)
let test_json_parse_cases () =
  List.iter
    (fun (text, want) ->
      let show = function
        | Ok v -> "Ok " ^ Jsonio.render v
        | Error e -> "Error " ^ e
      in
      Alcotest.(check string) (String.escaped text) want (show (Jsonio.parse text));
      Alcotest.(check string) ("oracle " ^ String.escaped text) want
        (show (Jsonio_oracle.parse text)))
    [ ("\"a\\u0041b\"", "Ok \"aAb\"");
      ("\"\\u0001\\u001F\\u007f\"", "Ok \"\\u0001\\u001f\127\"");
      ("\"\\u00e9\\u20AC\"", "Ok \"\xc3\xa9\xe2\x82\xac\"");
      ("\"\\ud83d\\ude00\"", "Ok \"\xf0\x9f\x98\x80\"");
      ("\"\\ud83dx\\ude00\\u12g4\"", "Ok \"?x??\"");
      ("\"\\u00\"", "Error truncated \\u escape at byte 2");
      ("\"ab", "Error unterminated string at byte 3");
      ("\"a\\q\"", "Error bad escape at byte 3");
      ("\"a\\", "Error bad escape at byte 3");
      ("{\"k\" 1}", "Error expected ':' at byte 5");
      ("{\"k\":1 2}", "Error expected ',' or '}' at byte 7");
      ("[1 2]", "Error expected ',' or ']' at byte 3");
      ("{1:2}", "Error expected '\"' at byte 1");
      ("tru", "Error expected true at byte 0");
      ("1.2.3", "Error malformed number at byte 5");
      ("x", "Error expected a number at byte 0");
      ("  ", "Error unexpected end of input at byte 2");
      ("null x", "Error trailing garbage at byte 5");
      ("\"\001\\t\xff\"", "Ok \"\\u0001\\t\xff\"") ]

let test_json_member () =
  let doc = {|{"schema": "x/1", "cells": [1, 2.5, true, null, "s"]}|} in
  match Jsonio.parse doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
    Alcotest.(check bool) "schema member" true
      (Jsonio.member "schema" v = Some (Jsonio.Str "x/1"));
    Alcotest.(check bool) "array member" true
      (Jsonio.member "cells" v
      = Some
          (Jsonio.Arr
             [
               Jsonio.Num 1.0; Jsonio.Num 2.5; Jsonio.Bool true; Jsonio.Null;
               Jsonio.Str "s";
             ]));
    Alcotest.(check bool) "absent member" true
      (Jsonio.member "missing" v = None)

(* --- estimator vs engine on random affine kernels -------------------- *)

(* One access stream: a pointer initialised to [base + off], bumped by
   [stride] each iteration, dereferenced at [width] bytes. Offsets and
   strides are multiples of the width so every access is aligned (the
   machines' legality tables allow them and no misalignment penalties
   muddy the comparison). *)
type stream = { off : int; stride : int; width : Width.t; is_store : bool }

type kernel = { streams : stream list; n : int }

let gen_kernel =
  let open QCheck.Gen in
  let gen_stream =
    let* width = oneofl [ Width.W32; Width.W64 ] in
    let w = Width.bytes width in
    let* off = map (fun k -> k * w) (int_range 0 (512 / w)) in
    let* stride = map (fun k -> k * w) (oneofl [ 0; 1; 2; 4 ]) in
    let* is_store = bool in
    return { off; stride; width; is_store }
  in
  let* streams = list_size (int_range 1 3) gen_stream in
  let* n = int_range 8 100 in
  return { streams; n }

let func_of_kernel { streams; n = _ } =
  (* r0 = buffer base, r1 = trip count; pointers in r10.., loads into
     r20.., the loop counter in r2, an accumulator in r5. Every loaded
     value feeds the accumulator: the engine only pays a load-miss
     penalty when the value is consumed before it arrives, and the
     estimator assumes every load is consumed — dead loads would
     diverge by design. *)
  let preamble =
    Rtl.Move (reg 2, Rtl.Imm 0L)
    :: Rtl.Move (reg 5, Rtl.Imm 0L)
    :: List.mapi
         (fun k s ->
           Rtl.Binop
             (Rtl.Add, reg (10 + k), Rtl.Reg (reg 0),
              Rtl.Imm (Int64.of_int s.off)))
         streams
  in
  let body =
    List.concat
      (List.mapi
         (fun k s ->
           let mem =
             { Rtl.base = reg (10 + k); disp = 0L; width = s.width;
               aligned = true }
           in
           let access =
             if s.is_store then
               [ Rtl.Store { src = Rtl.Reg (reg 2); dst = mem } ]
             else
               [
                 Rtl.Load { dst = reg (20 + k); src = mem; sign = Unsigned };
                 Rtl.Binop
                   (Rtl.Add, reg 5, Rtl.Reg (reg 5), Rtl.Reg (reg (20 + k)));
               ]
           in
           access
           @ [
               Rtl.Binop
                 (Rtl.Add, reg (10 + k), Rtl.Reg (reg (10 + k)),
                  Rtl.Imm (Int64.of_int s.stride));
             ])
         streams)
  in
  func_of
    (preamble
    @ [ Rtl.Label "L" ]
    @ body
    @ [
        Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L);
        Rtl.Branch
          { cmp = Rtl.Lt; l = Rtl.Reg (reg 2); r = Rtl.Reg (reg 1);
            target = "L" };
        Rtl.Ret (Some (Rtl.Imm 0L));
      ])

let pp_kernel k =
  Printf.sprintf "n=%d streams=[%s]" k.n
    (String.concat "; "
       (List.map
          (fun s ->
            Printf.sprintf "%s off=%d stride=%d w=%d"
              (if s.is_store then "st" else "ld")
              s.off s.stride
              (Width.bytes s.width))
          k.streams))

(* The comparison only holds in the regime the estimator models
   (DESIGN §13). Two documented approximations bite on random kernels:

   - conflict misses in a direct-mapped cache are not simulated, so a
     kernel where two different lines fight over one set diverges
     arbitrarily ([conflict_free] enumerates the walked lines — cheap,
     n <= 100 and <= 3 streams — and rejects those);
   - a stream whose stride exceeds the line size sweeps the cache
     sparsely, and the line-density credit for the untouched gaps is
     an approximation (the paper kernels are all dense, stride <=
     element width), so the property restricts itself to dense sweeps
     ([dense]). *)
let dense machine k =
  let line = machine.Machine.dcache.line_bytes in
  List.for_all (fun s -> s.stride <= line) k.streams

let conflict_free machine k ~base =
  let line = machine.Machine.dcache.line_bytes in
  let sets = machine.Machine.dcache.size_bytes / line in
  let set_to_line = Hashtbl.create 64 in
  try
    List.iter
      (fun s ->
        for i = 0 to k.n - 1 do
          let ln = (base + s.off + (s.stride * i)) / line in
          let set = ln mod sets in
          match Hashtbl.find_opt set_to_line set with
          | Some ln' when ln' <> ln -> raise Exit
          | _ -> Hashtbl.replace set_to_line set ln
        done)
      k.streams;
    true
  with Exit -> false

let check_kernel machine k =
  (* demote widths the machine cannot access (the 88100 has no
     doubleword loads); offsets and strides stay multiples of 8, so
     alignment is preserved *)
  let k =
    {
      k with
      streams =
        List.map
          (fun s ->
            if Machine.legal_load machine s.width ~aligned:true then s
            else { s with width = Width.W32 })
          k.streams;
    }
  in
  QCheck.assume (dense machine k && conflict_free machine k ~base:64);
  let f = func_of_kernel k in
  let args = [ 64L; Int64.of_int k.n ] in
  let summary = Estimate.func ~machine ~args f in
  let memory = Memory.create ~size:8192 in
  let r =
    Interp.run ~machine ~memory [ f ] ~entry:"k" ~args ()
  in
  let m = r.Interp.metrics in
  let close ~slack what pred sim =
    let ok =
      abs (pred - sim)
      <= max slack (int_of_float (0.15 *. float_of_int sim))
    in
    if not ok then
      QCheck.Test.fail_reportf "%s: predicted %d, simulated %d (%s)" what
        pred sim (pp_kernel k)
  in
  close ~slack:3 "d-cache misses" summary.Reuse.s_misses m.Interp.dcache_misses;
  close ~slack:30 "cycles" summary.Reuse.s_cycles m.Interp.cycles;
  true

let kernel_tests =
  let arb = QCheck.make ~print:pp_kernel gen_kernel in
  [
    QCheck.Test.make ~count:60 ~name:"estimator vs engine (alpha)" arb
      (check_kernel Machine.alpha);
    QCheck.Test.make ~count:60 ~name:"estimator vs engine (mc88100)" arb
      (check_kernel Machine.mc88100);
  ]

(* A whole-benchmark prediction follows [model_icache], also when the
   same build is estimated again with the other setting: on mc88100
   image_add the estimator matches the simulator to the cycle with and
   without the instruction-fetch model, and modelling it costs cycles.
   The three estimates run in the order off, on, off, so a summary kept
   from one setting and served for the other shows. *)
let test_icache_prediction () =
  let b = Option.get (W.find "image_add") in
  let check model_icache =
    let what = if model_icache then "i-cache modelled" else "no i-cache" in
    let p =
      W.estimate ~size:16 ~model_icache ~machine:Machine.mc88100
        ~level:Mac_vpo.Pipeline.O4 b
    in
    let o =
      W.run ~size:16 ~model_icache ~machine:Machine.mc88100
        ~level:Mac_vpo.Pipeline.O4 b
    in
    let s = p.W.summary and m = o.W.metrics in
    Alcotest.(check int) (what ^ ": cycles") m.Interp.cycles s.Reuse.s_cycles;
    Alcotest.(check int) (what ^ ": i-cache misses") m.Interp.icache_misses
      s.Reuse.s_icache_misses;
    s.Reuse.s_cycles
  in
  let off = check false in
  let on = check true in
  let off' = check false in
  Alcotest.(check bool) "the fetch model costs cycles" true (on > off);
  Alcotest.(check int) "off again predicts as before" off off'

(* --- the estimation sweep and its accuracy contract ------------------ *)

(* One full grid, estimated and simulated, shared by the tests below:
   every paper-table cell at every level, at size 48. *)
let cells = lazy (Estcells.run ~size:48 ())

let grid_size =
  List.length Estcells.sections * List.length Mac_workloads.Workloads.all
  * List.length Estcells.levels

let test_grid_complete () =
  let cells = Lazy.force cells in
  Alcotest.(check int) "every cell present" grid_size (List.length cells);
  List.iter
    (fun (c : Estcells.ecell) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s/%s simulated" c.section c.bench c.level)
        true
        (c.sim_cycles <> None && c.pred_cycles > 0))
    cells

let test_accuracy_contract () =
  let cells = Lazy.force cells in
  let median = Estcells.median_cycle_err cells in
  Alcotest.(check bool)
    (Printf.sprintf "median cycle error %.4f within tolerance %.2f" median
       Estcells.tolerance)
    true
    (median <= Estcells.tolerance);
  (* Every individual cell stays within a looser per-cell bound; the
     worst offenders are documented in DESIGN.md §13 (conflict misses in
     the 68030's tiny direct-mapped cache are not modelled). *)
  List.iter
    (fun (c : Estcells.ecell) ->
      match Estcells.cycle_err c with
      | None -> ()
      | Some e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s/%s cycle err %.4f" c.section c.bench
             c.level e)
          true (e <= 0.5))
    cells

let test_tab2_miss_accuracy () =
  (* On the paper's headline machine (Table II / alpha) the miss model
     is tight at every optimisation level. *)
  let cells = Lazy.force cells in
  List.iter
    (fun (c : Estcells.ecell) ->
      if String.equal c.section "TAB2" then
        match Estcells.miss_err c with
        | None -> ()
        | Some e ->
          Alcotest.(check bool)
            (Printf.sprintf "TAB2/%s/%s miss err %.4f" c.bench c.level e)
            true (e <= 0.05))
    cells

(* --- triage ---------------------------------------------------------- *)

let test_concordance () =
  let check name want pairs =
    Alcotest.(check (float 1e-9)) name want (Estcells.concordance pairs)
  in
  check "empty" 1.0 [];
  check "singleton" 1.0 [ (1.0, 5.0) ];
  check "perfect agreement" 1.0 [ (1.0, 10.0); (2.0, 20.0); (3.0, 30.0) ];
  check "perfect disagreement" 0.0 [ (1.0, 30.0); (2.0, 20.0); (3.0, 10.0) ];
  check "tie counts half" 0.5 [ (1.0, 5.0); (2.0, 5.0) ];
  check "one bad pair" (2.0 /. 3.0)
    [ (1.0, 10.0); (2.0, 30.0); (3.0, 20.0) ]

let test_triage () =
  let t = Estcells.run_triage ~size:32 () in
  let keys =
    List.length Estcells.sections * List.length Mac_workloads.Workloads.all
  in
  Alcotest.(check int) "every key ranked" keys (List.length t.Estcells.ranking);
  Alcotest.(check int) "simulated + skipped = keys" keys
    (t.Estcells.simulated + t.Estcells.skipped);
  Alcotest.(check bool) "only the interesting half simulated" true
    (t.Estcells.simulated = (keys + 1) / 2);
  (* the ranking is descending in predicted savings, simulated entries
     first (the top half), skipped ones carry no simulated figure *)
  let rec descending = function
    | ({ Estcells.r_pred_savings = a; _ } : Estcells.ranked)
      :: ({ Estcells.r_pred_savings = b; _ } as r2)
      :: rest ->
      a >= b && descending (r2 :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "ranking descending" true (descending t.Estcells.ranking);
  Alcotest.(check int) "skipped entries carry no simulation"
    t.Estcells.skipped
    (List.length
       (List.filter
          (fun (r : Estcells.ranked) -> r.Estcells.r_sim_savings = None)
          t.Estcells.ranking));
  (* the predicted order must substantially agree with the simulated
     one on the simulated subset — the property triage relies on *)
  Alcotest.(check bool)
    (Printf.sprintf "agreement %.2f >= 0.6" t.Estcells.agreement)
    true
    (t.Estcells.agreement >= 0.6)

let () =
  Alcotest.run "estimate"
    [
      ( "reuse model",
        Alcotest.test_case "classify" `Quick test_classify
        :: List.map QCheck_alcotest.to_alcotest sweep_tests );
      ( "jsonio",
        [
          QCheck_alcotest.to_alcotest json_roundtrip_test;
          Alcotest.test_case "parse + member" `Quick test_json_member;
          QCheck_alcotest.to_alcotest json_oracle_render_test;
          QCheck_alcotest.to_alcotest json_oracle_parse_test;
          QCheck_alcotest.to_alcotest json_string_roundtrip_test;
          Alcotest.test_case "parse cases match the oracle" `Quick
            test_json_parse_cases;
        ] );
      ( "estimator vs engine",
        Alcotest.test_case "prediction follows model_icache" `Quick
          test_icache_prediction
        :: List.map QCheck_alcotest.to_alcotest kernel_tests );
      ( "sweep contract",
        [
          Alcotest.test_case "grid complete" `Quick test_grid_complete;
          Alcotest.test_case "accuracy contract" `Quick test_accuracy_contract;
          Alcotest.test_case "TAB2 miss accuracy" `Quick
            test_tab2_miss_accuracy;
        ] );
      ( "triage",
        [
          Alcotest.test_case "concordance" `Quick test_concordance;
          Alcotest.test_case "ranked triage" `Quick test_triage;
        ] );
    ]
