(* The JSON kernel as it was before it scanned runs: [escape] appends
   one character at a time and [parse] peeks through an option. Kept
   only as an oracle: test_estimate checks that Mac_workloads.Jsonio
   renders the same bytes and parses the same values and errors. The
   value type is Jsonio's, so results compare directly. *)

open Mac_workloads.Jsonio

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""

(* Canonical compact emitter for {!t} values. Finite floats only; a
   whole number prints without a fraction part and anything else with
   enough digits ([%.17g]) that {!parse} recovers the same float — the
   round-trip the qcheck harness pins. *)
let render v =
  let buf = Buffer.create 256 in
  let num f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> num f
    | Str s -> Buffer.add_string buf (str s)
    | Arr vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        vs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (str k);
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* the value of the four hex digits at [i], or -1 *)
  let hex_at i =
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> -1
    in
    let ds = List.init 4 (fun k -> digit s.[i + k]) in
    if List.mem (-1) ds then -1
    else List.fold_left (fun acc d -> (acc * 16) + d) 0 ds
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some ('"' as c) | Some ('\\' as c) | Some ('/' as c) ->
          Buffer.add_char buf c;
          advance ();
          go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let u = hex_at (!pos + 1) in
          for _ = 0 to 4 do advance () done;
          let low =
            if !pos + 5 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then
              hex_at (!pos + 2)
            else -1
          in
          let surrogate c = c >= 0xd800 && c <= 0xdfff in
          if u >= 0xd800 && u <= 0xdbff && low >= 0xdc00 && low <= 0xdfff
          then begin
            for _ = 0 to 5 do advance () done;
            Buffer.add_utf_8_uchar buf
              (Uchar.of_int (0x10000 + ((u - 0xd800) * 0x400) + low - 0xdc00))
          end
          else if u < 0 || surrogate u then Buffer.add_char buf '?'
          else Buffer.add_utf_8_uchar buf (Uchar.of_int u);
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
