(** One compile request → one canonical artifact document.

    This is the single compile path behind both the daemon and the
    [mcc --remote] local fallback, so a client that falls back to
    compiling locally produces the same document a healthy daemon
    would have returned. The document ([mac-serve-artifact/3],
    rendered with {!Mac_workloads.Jsonio} — compact, field order
    fixed) carries the full RTL dump, the per-loop coalescer reports,
    verifier diagnostics, pass timings, the guard/elision counters and
    the per-pass translation-validation counters (checked, skipped,
    regions, fallbacks); the RTL is always included so the cache
    stores exactly one form per key and a client-side [--dump-rtl] is
    a display choice, not a different compile. *)

val run :
  ?verdicts:Cache.t ->
  ?resolved:Digest_key.resolved ->
  Protocol.request ->
  bool * string
(** [(ok, body)]. [ok = true]: the compile succeeded and [body] is the
    artifact document. [ok = false]: [body] is a canonical error
    document (fields [ok:false], [kind], [error]) — front-end errors,
    verification failures and unknown machines/benchmarks all land
    here rather than escaping as exceptions, which is what lets the
    daemon serve a poisoned request its own failed response without
    dying (and without disturbing the requests beside it). Only
    [ok = true] bodies are cached. A verdict the disk refuses to
    store is dropped, not raised.

    [resolved] is the request's {!Digest_key.resolve} result when the
    caller (the daemon) already computed it — the canonical-source
    digest is computed once per request, never once per consumer.

    [verdicts] is the validation-verdict cache. A [Vfull] request
    whose verdict key hits recompiles {e without} the validator and
    splices the certified diagnostics + per-pass counters into the
    fresh body: the compiler is deterministic, the verdict key pins
    build fingerprint, machine, level and canonical-source digest, and
    a verdict is only ever stored for a compile that passed full
    validation — so the spliced artifact reports exactly what a
    re-validation would have proved. A [Vfull] compile that succeeds
    with a verdict miss stores its verdict for the next artifact
    eviction. Verify levels below [Vfull] never read or write
    verdicts. *)

val error_body : kind:string -> string -> string
(** The canonical error document, exposed for the server's
    protocol-level failures (malformed frame, bad request JSON). *)
