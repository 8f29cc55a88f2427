(* One gate for every bench artifact: re-validate BENCH_sim.json,
   BENCH_est.json and BENCH_serve.json with the same independent
   parsers the emitting harnesses use, dispatched by the document's
   own "schema" field — so CI checks the artifacts it uploads with
   exactly the code that defined them, not a drift-prone pile of
   greps.

   Usage: validate [FILE...]. With no arguments, whichever of the
   three canonical files exist are checked (at least one must). A file
   named explicitly must exist and must validate.

   The translation-validation regression gate rides along: when
   MAC_TVALID_BUDGET (seconds) is set, the sim document's total
   tvalid_seconds must stay under it or the run fails. The budget pins
   the incremental validator's win: a change that quietly reverts block
   skipping or memoization shows up as an order-of-magnitude
   tvalid_seconds jump long before anyone reads a profile. *)

module J = Mac_workloads.Jsonio

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sum_obj doc key =
  match J.member key doc with
  | Some (J.Obj fields) ->
    Some
      (List.fold_left
         (fun acc (_, v) -> match v with J.Num n -> acc +. n | _ -> acc)
         0.0 fields)
  | _ -> None

let num_member doc key =
  match J.member key doc with Some (J.Num n) -> Some n | _ -> None

(* The sim harness emits tvalid_seconds as a per-pass object and
   compile_seconds as a total at document level; the gate compares the
   object's sum against the total. *)
let tvalid_gate path doc =
  match
    Option.bind (Sys.getenv_opt "MAC_TVALID_BUDGET") float_of_string_opt
  with
  | None -> Ok ()
  | Some budget -> (
    match (sum_obj doc "tvalid_seconds", num_member doc "compile_seconds") with
    | None, _ -> Error (path ^ " has no tvalid_seconds object to gate")
    | _, None -> Error (path ^ " has no compile_seconds number to gate")
    | Some tvalid, Some compile ->
      Printf.printf "%s: tvalid %.3f s over %.3f s of compiles (%.1f%%)\n"
        path tvalid compile
        (if compile > 0.0 then 100.0 *. tvalid /. compile else 0.0);
      if tvalid > budget then
        Error
          (Printf.sprintf
             "%s: tvalid_seconds %.3f exceeds MAC_TVALID_BUDGET %.3f — the \
              incremental validator regressed"
             path tvalid budget)
      else Ok ())

let validate_file path =
  let text = read_file path in
  let schema =
    match J.parse text with
    | Error e -> Error (path ^ " does not parse: " ^ e)
    | Ok doc -> (
      match J.member "schema" doc with
      | Some (J.Str s) -> Ok (s, doc)
      | _ -> Error (path ^ " has no \"schema\" string"))
  in
  match schema with
  | Error e -> Error e
  | Ok (s, doc) -> (
    let described ?(gate = false) check =
      match check text with
      | Ok _ -> (
        Printf.printf "%s: %s ok\n" path s;
        if not gate then Ok ()
        else
          match tvalid_gate path doc with
          | Ok () -> Ok ()
          | Error _ as e -> e)
      | Error e -> Error (path ^ ": " ^ e)
    in
    match s with
    | "mac-bench-sim/7" -> described ~gate:true Mac_workloads.Sweep.validate
    | "mac-bench-est/1" -> described Mac_workloads.Estcells.validate
    | "mac-bench-serve/1" -> described Mac_serve.Report.validate
    | other -> Error (Printf.sprintf "%s: unknown schema %S" path other))

let () =
  let canonical = [ "BENCH_sim.json"; "BENCH_est.json"; "BENCH_serve.json" ] in
  let files =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.filter Sys.file_exists canonical
    | named -> named
  in
  if files = [] then (
    prerr_endline
      "validate: none of BENCH_sim.json / BENCH_est.json / BENCH_serve.json \
       exist";
    exit 1);
  let failed =
    List.fold_left
      (fun failed path ->
        match
          if Sys.file_exists path then validate_file path
          else Error (path ^ ": no such file")
        with
        | Ok () -> failed
        | Error e ->
          prerr_endline ("validate: " ^ e);
          true)
      false files
  in
  if failed then exit 1
