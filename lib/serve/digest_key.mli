(** Content-addressed cache keys for compile requests.

    A key is a digest over the {e canonicalized} request fields, so two
    requests that mean the same compile hash equal:

    - the MiniC source is canonicalized first: [//] and [/* */]
      comments are dropped, every whitespace run collapses to one
      space and the ends are trimmed — the lexer's token stream is
      invariant under exactly these rewrites — so reformatting a file
      does not defeat the cache;
    - a named built-in workload resolves to its source before hashing,
      so [--bench image_add] and a file holding the same program share
      one cache entry;
    - the JSON field {e order} of the wire request never enters the
      digest (the fields are hashed in a fixed sequence), so reordered
      or defaulted optional fields hash equal;
    - the build's {!Mac_vpo.Version.compiler_fingerprint} is folded
      in, so a cache directory surviving a compiler rebuild can never
      serve stale artifacts — the keys simply stop matching.

    A qcheck property in [test_serve.ml] pins both directions:
    whitespace/comment-respaced sources and reordered optional fields
    hash equal, and a random corpus of distinct programs is
    collision-free. *)

type t = string
(** Lowercase hex, fixed width — usable directly as a file name in
    {!Cache}. *)

type resolved = {
  r_source : string;  (** the request's source text, [`Bench] resolved *)
  r_digest : string;  (** digest of the canonicalized source alone, computed exactly once *)
  r_artifact_key : t;  (** key of the artifact-body cache entry *)
  r_verdict_key : t;
      (** key of the validation-verdict entry: same fields minus the
          verify level — a verdict certifies what a Vfull run of this
          (build, machine, level, source) compile proved, so an
          artifact-evicted Vfull request can recompile without
          re-validating *)
}

val resolve :
  ?fingerprint:string -> Protocol.request -> (resolved, string) result
(** Resolve a [`Bench] name through {!Mac_workloads.Workloads.find}
    (the [Error] case is an unknown name), canonicalize and digest the
    source once, and derive both keys from that one digest. *)

val of_request : ?fingerprint:string -> Protocol.request -> (t, string) result
(** [resolve]'s artifact key alone. *)
