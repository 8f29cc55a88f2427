(* Cache keys: a digest over canonicalized request fields. The
   canonicalization must be sound (never identify two programs the
   lexer distinguishes) — it only performs rewrites the token stream is
   invariant under: comment removal and whitespace collapsing. *)

type t = string

(* MiniC whitespace/comment canonicalization, mirroring the lexer's
   skipping rules (lexer.ml): ' ' '\t' '\r' '\n' separate tokens,
   [//] runs to end of line, [/* */] nests nothing. An unterminated
   block comment canonicalizes to end-of-input; the compile itself
   reports the error. *)
let canonical_source src =
  let n = String.length src in
  let buf = Buffer.create n in
  let pending_sep = ref false in
  let emit c =
    if !pending_sep && Buffer.length buf > 0 then Buffer.add_char buf ' ';
    pending_sep := false;
    Buffer.add_char buf c
  in
  let rec go i =
    if i >= n then ()
    else
      match src.[i] with
      | ' ' | '\t' | '\r' | '\n' ->
        pending_sep := true;
        go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' ->
        let j = ref (i + 2) in
        while !j < n && src.[!j] <> '\n' do incr j done;
        pending_sep := true;
        go !j
      | '/' when i + 1 < n && src.[i + 1] = '*' ->
        let j = ref (i + 2) in
        while !j + 1 < n && not (src.[!j] = '*' && src.[!j + 1] = '/') do
          incr j
        done;
        pending_sep := true;
        go (if !j + 1 < n then !j + 2 else n)
      | c ->
        emit c;
        go (i + 1)
  in
  go 0;
  Buffer.contents buf

let hex s = Digest.to_hex (Digest.string s)
let source_digest src = hex (canonical_source src)

(* Fields are joined with an unambiguous separator in a fixed order, so
   wire-level field order can never influence the key. Both key kinds
   take the already-computed source digest: canonicalization runs once
   per request ({!resolve}), never once per key. *)
let fingerprint_of = function
  | Some f -> f
  | None -> Mac_vpo.Version.compiler_fingerprint

let artifact_of_digest ?fingerprint ~source_digest ~machine ~level ~verify
    () =
  hex
    (String.concat "\x1f"
       [
         "mac-serve-key/1";
         fingerprint_of fingerprint;
         machine;
         level;
         verify;
         source_digest;
       ])

(* The validation-verdict key deliberately omits the verify level: the
   verdict records what a Vfull run of this exact (build, machine,
   level, source) compile proved, and is only ever written or consulted
   for Vfull requests. *)
let verdict_of_digest ?fingerprint ~source_digest ~machine ~level () =
  hex
    (String.concat "\x1f"
       [
         "mac-serve-verdict-key/1";
         fingerprint_of fingerprint;
         machine;
         level;
         source_digest;
       ])

type resolved = {
  r_source : string;
  r_digest : string;
  r_artifact_key : t;
  r_verdict_key : t;
}

let resolve ?fingerprint (r : Protocol.request) =
  let source =
    match r.Protocol.src with
    | `Source s -> Ok s
    | `Bench name -> (
      match Mac_workloads.Workloads.find name with
      | Some b -> Ok b.Mac_workloads.Workloads.source
      | None -> Error (Printf.sprintf "unknown benchmark %S" name))
  in
  match source with
  | Error e -> Error e
  | Ok source ->
    let digest = source_digest source in
    let machine = r.Protocol.machine in
    let level = Mac_vpo.Pipeline.level_to_string r.Protocol.level in
    Ok
      {
        r_source = source;
        r_digest = digest;
        r_artifact_key =
          artifact_of_digest ?fingerprint ~source_digest:digest ~machine
            ~level
            ~verify:(Mac_vpo.Pipeline.verify_level_to_string r.Protocol.verify)
            ();
        r_verdict_key =
          verdict_of_digest ?fingerprint ~source_digest:digest ~machine
            ~level ();
      }

let of_request ?fingerprint (r : Protocol.request) =
  Result.map (fun rv -> rv.r_artifact_key) (resolve ?fingerprint r)
