(* Length-framed messages for the mccd daemon. The JSON side rides the
   shared Jsonio kernel so the wire, the on-disk cache and the bench
   artifacts all speak the same canonical format; a reply's artifact
   body follows its JSON header raw, as the cache stores it. *)

module J = Mac_workloads.Jsonio
module Pipeline = Mac_vpo.Pipeline

let proto = "mac-serve/2"
let max_frame = 1 lsl 24

type source = [ `Source of string | `Bench of string ]

type request = {
  src : source;
  machine : string;
  level : Pipeline.level;
  verify : Pipeline.verify_level;
}

(* Vfull by default: the daemon's artifacts are published documents, so
   an unqualified request gets the fully-validated compile. Clients that
   want a fast unchecked build must say so ([~verify:Vnone]). *)
let request ?(level = Pipeline.O4) ?(verify = Pipeline.Vfull) ~machine src =
  { src; machine; level; verify }

type hello = { h_proto : string; h_fingerprint : string }
type reply = { r_ok : bool; r_cached : bool; r_key : string; r_body : string }

(* --- JSON codecs ------------------------------------------------- *)

let request_to_json r =
  let src_field =
    match r.src with
    | `Source s -> ("source", J.Str s)
    | `Bench b -> ("bench", J.Str b)
  in
  J.render
    (J.Obj
       [
         src_field;
         ("machine", J.Str r.machine);
         ("level", J.Str (Pipeline.level_to_string r.level));
         ("verify", J.Str (Pipeline.verify_level_to_string r.verify));
       ])

let str_member key doc =
  match J.member key doc with Some (J.Str s) -> Some s | _ -> None

let request_of_json text =
  match J.parse text with
  | Error msg -> Error ("request does not parse: " ^ msg)
  | Ok doc -> (
    let src =
      match (str_member "source" doc, str_member "bench" doc) with
      | Some s, None -> Ok (`Source s)
      | None, Some b -> Ok (`Bench b)
      | Some _, Some _ -> Error "request has both \"source\" and \"bench\""
      | None, None -> Error "request has neither \"source\" nor \"bench\""
    in
    match src with
    | Error e -> Error e
    | Ok src -> (
      match str_member "machine" doc with
      | None -> Error "request has no \"machine\" string"
      | Some machine -> (
        let level =
          match str_member "level" doc with
          | None -> Ok Pipeline.O4
          | Some s -> (
            match Pipeline.level_of_string s with
            | Some l -> Ok l
            | None -> Error (Printf.sprintf "unknown level %S" s))
        in
        let verify =
          match str_member "verify" doc with
          | None -> Ok Pipeline.Vfull
          | Some s -> (
            match Pipeline.verify_level_of_string s with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "unknown verify level %S" s))
        in
        match (level, verify) with
        | Ok level, Ok verify -> Ok { src; machine; level; verify }
        | Error e, _ | _, Error e -> Error e)))

let hello_to_json h =
  J.render
    (J.Obj [ ("proto", J.Str h.h_proto); ("fingerprint", J.Str h.h_fingerprint) ])

let hello_of_json text =
  match J.parse text with
  | Error msg -> Error ("hello does not parse: " ^ msg)
  | Ok doc -> (
    match (str_member "proto" doc, str_member "fingerprint" doc) with
    | Some h_proto, Some h_fingerprint -> Ok { h_proto; h_fingerprint }
    | _ -> Error "hello lacks \"proto\"/\"fingerprint\" strings")

(* The header is a compact rendering, which escapes every newline, so
   the first newline of a reply ends it. *)
let reply_to_json r =
  let header =
    J.render
      (J.Obj
         [
           ("ok", J.Bool r.r_ok);
           ("cached", J.Bool r.r_cached);
           ("key", J.Str r.r_key);
           ("body_bytes", J.Num (float_of_int (String.length r.r_body)));
         ])
  in
  String.concat "\n" [ header; r.r_body ]

let reply_of_json text =
  match String.index_opt text '\n' with
  | None -> Error "reply has no header line"
  | Some eol -> (
    match J.parse (String.sub text 0 eol) with
    | Error msg -> Error ("reply header does not parse: " ^ msg)
    | Ok doc -> (
      let bool_member key =
        match J.member key doc with Some (J.Bool b) -> Some b | _ -> None
      in
      match
        ( bool_member "ok",
          bool_member "cached",
          str_member "key" doc,
          J.member "body_bytes" doc )
      with
      | Some r_ok, Some r_cached, Some r_key, Some (J.Num n) ->
        let len = String.length text - eol - 1 in
        if n <> float_of_int len then
          Error
            (Printf.sprintf "reply body is %d bytes, its header says %s" len
               (J.render (J.Num n)))
        else Ok { r_ok; r_cached; r_key; r_body = String.sub text (eol + 1) len }
      | _ -> Error "reply header lacks ok/cached/key/body_bytes fields"))

(* --- framing ----------------------------------------------------- *)

let really_write fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < n then
      let k = Unix.write fd b off (n - off) in
      go (off + k)
  in
  go 0

(* All the frames in one buffer, so they leave in one [write]. *)
let write_frames fd payloads =
  let total =
    List.fold_left (fun acc p -> acc + 4 + String.length p) 0 payloads
  in
  let b = Bytes.create total in
  ignore
    (List.fold_left
       (fun off p ->
         let n = String.length p in
         Bytes.set_int32_be b off (Int32.of_int n);
         Bytes.blit_string p 0 b (off + 4) n;
         off + 4 + n)
       0 payloads);
  really_write fd (Bytes.unsafe_to_string b)

let write_frame fd payload = write_frames fd [ payload ]

let really_read fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off >= len then Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> Error (Printf.sprintf "connection closed after %d/%d bytes" off len)
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* a socket read deadline ([SO_RCVTIMEO]) expired *)
        Error (Printf.sprintf "read timed out after %d/%d bytes" off len)
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "read failed after %d/%d bytes: %s" off len
                 (Unix.error_message e))
  in
  go 0

let read_frame fd =
  match really_read fd 4 with
  | Error e -> Error e
  | Ok hdr ->
    let b i = Char.code hdr.[i] in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n > max_frame then
      Error (Printf.sprintf "frame of %d bytes exceeds max %d" n max_frame)
    else really_read fd n
