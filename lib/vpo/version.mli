(** Compiler build identity.

    Nothing in the toolchain identified a compiler build until the
    compile cache made that dangerous: a cache entry produced by one
    build must never satisfy a request compiled by another whose
    semantics differ. {!compiler_fingerprint} is the single string the
    whole system uses for that — the {!Mac_serve} cache key folds it
    in, the serve protocol hello announces it, the BENCH artifact
    headers record it, and [mcc --version]/[mccd --version] print it. *)

val compiler_fingerprint : string
(** [mcc/VERSION+HASH]: the compiler's semantic version (bumped by hand
    whenever a change alters what a compile produces) plus a short
    digest binding in the toolchain parameters the emitted code could
    depend on (OCaml compiler version, word size). Two processes report
    equal fingerprints only when they agree on the version and were
    built by the same toolchain generation — the property the compile
    cache, the protocol hello and the bench headers all key on. *)
