(* One hand-rolled JSON kernel: the mccd protocol and its artifact
   documents, mcc's rendering of a remote artifact, and the benchmark's
   result line and Chrome trace all emit and parse through it. The
   toolchain has no JSON library; keeping the escape rules, the number
   format and the parser in one place means writers and readers cannot
   drift. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Escape [s] into [buf]. Each run of characters that need no escape
   goes in with one [add_substring]; a control character outside the
   three short forms becomes [\u00XX] in lowercase hex. *)
let escape_into buf s =
  let n = String.length s in
  let hex d = "0123456789abcdef".[d] in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match String.unsafe_get s i with
      | ('"' | '\\') as c -> short start i c
      | '\n' -> short start i 'n'
      | '\t' -> short start i 't'
      | '\r' -> short start i 'r'
      | c when Char.code c < 0x20 ->
        Buffer.add_substring buf s start (i - start);
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf (hex (Char.code c lsr 4));
        Buffer.add_char buf (hex (Char.code c land 15));
        go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  and short start i c =
    Buffer.add_substring buf s start (i - start);
    Buffer.add_char buf '\\';
    Buffer.add_char buf c;
    go (i + 1) (i + 1)
  in
  go 0 0

let quoted buf s =
  Buffer.add_char buf '"';
  escape_into buf s;
  Buffer.add_char buf '"'

let str s =
  let buf = Buffer.create (String.length s + 2) in
  quoted buf s;
  Buffer.contents buf

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
    | Str s -> quoted buf s
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
          quoted buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

exception Bad of string

(* Recursive descent over an index into [s]. Reading a character
   allocates nothing ([at] answers ['\000'] past the end, a byte no
   branch takes for a token), and a string is copied a run at a time:
   one [String.sub] when it has no escape. An error names the byte
   offset it stopped at. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let at i = if i < n then String.unsafe_get s i else '\000' in
  let skip_ws () =
    while match at !pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
      incr pos
    done
  in
  let expect c =
    if at !pos = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    let rec same i = i = len || (s.[!pos + i] = word.[i] && same (i + 1)) in
    if !pos + len <= n && same 0 then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* the first quote or backslash at or after [i], or [n] *)
  let rec plain i =
    if i < n && (match String.unsafe_get s i with '"' | '\\' -> false | _ -> true)
    then plain (i + 1)
    else i
  in
  (* the value of the four hex digits at [i], or -1 *)
  let hex4 i =
    let h = String.sub s i 4 in
    let hex = function '0'..'9' | 'a'..'f' | 'A'..'F' -> true | _ -> false in
    if String.for_all hex h then int_of_string ("0x" ^ h) else -1
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain start in
    if stop < n && String.unsafe_get s stop = '"' then begin
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      let buf = Buffer.create (stop - start + 16) in
      let rec go start =
        let stop = plain start in
        Buffer.add_substring buf s start (stop - start);
        pos := stop;
        if stop = n then fail "unterminated string"
        else if String.unsafe_get s stop = '"' then incr pos
        else begin
          incr pos;
          (match at !pos with
          | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape";
            let u = hex4 (!pos + 1) in
            pos := !pos + 4;
            (* a high surrogate pairs with a low one in the next escape *)
            let paired =
              u land 0xfc00 = 0xd800 && !pos + 6 < n
              && String.sub s (!pos + 1) 2 = "\\u"
            in
            let lo = if paired then hex4 (!pos + 3) else -1 in
            if lo land 0xfc00 = 0xdc00 then begin
              pos := !pos + 6;
              let c = 0x10000 + ((u land 0x3ff) lsl 10) + (lo land 0x3ff) in
              Buffer.add_utf_8_uchar buf (Uchar.of_int c)
            end
            else if u < 0 || u land 0xf800 = 0xd800 then Buffer.add_char buf '?'
            else Buffer.add_utf_8_uchar buf (Uchar.of_int u)
          | _ -> fail "bad escape");
          go (!pos + 1)
        end
      in
      go start;
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    while
      match at !pos with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '{' ->
      incr pos;
      skip_ws ();
      if at !pos = '}' then begin incr pos; Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match at !pos with
          | ',' -> incr pos; members ((key, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if at !pos = ']' then begin incr pos; Arr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match at !pos with
          | ',' -> incr pos; elements (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
