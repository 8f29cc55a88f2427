(* Compiler build identity. The fingerprint must change whenever compile
   output can change: the semantic version below is bumped by hand on
   any such PR, and the digest folds in the toolchain parameters
   (OCaml version, word size) so rebuilding under a different compiler
   generation also changes it. Everything that must not confuse two
   builds — the serve cache key, the protocol hello, the BENCH headers —
   uses this one string. *)

let version = "0.7.1"

let compiler_fingerprint =
  let seed =
    String.concat "\x00"
      [ "mac"; version; Sys.ocaml_version; string_of_int Sys.word_size ]
  in
  Printf.sprintf "mcc/%s+%s" version
    (String.sub (Digest.to_hex (Digest.string seed)) 0 12)
