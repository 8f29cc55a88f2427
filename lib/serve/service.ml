(* The compile behind the daemon: resolve the request, run the
   pipeline, render the artifact in the one canonical form the cache
   stores and the wire carries. Every failure mode becomes an ok:false
   document — nothing may escape as an exception, because a poisoned
   request must fail alone without taking down the daemon or the
   requests beside it. *)

module J = Mac_workloads.Jsonio
module Pipeline = Mac_vpo.Pipeline
module W = Mac_workloads.Workloads
module Func = Mac_rtl.Func

let artifact_schema = "mac-serve-artifact/3"
let verdict_schema = "mac-serve-verdict/1"

let error_body ~kind msg =
  J.render
    (J.Obj
       [
         ("schema", J.Str artifact_schema);
         ("ok", J.Bool false);
         ("fingerprint", J.Str Mac_vpo.Version.compiler_fingerprint);
         ("kind", J.Str kind);
         ("error", J.Str msg);
       ])

let status_string = function
  | Mac_core.Coalesce.Coalesced -> "coalesced"
  | Mac_core.Coalesce.Unrolled_only -> "unrolled-only"
  | Mac_core.Coalesce.No_narrow_refs -> "no-narrow-refs"
  | Mac_core.Coalesce.Rejected why -> "rejected: " ^ why

let report_json fname (r : Mac_core.Coalesce.loop_report) =
  J.Obj
    [
      ("func", J.Str fname);
      ("header", J.Str r.header);
      ("status", J.Str (status_string r.status));
      ("factor", J.Num (float_of_int r.factor));
      ("load_groups", J.Num (float_of_int r.load_groups));
      ("store_groups", J.Num (float_of_int r.store_groups));
      ("guards_emitted", J.Num (float_of_int r.guards_emitted));
      ("guards_elided", J.Num (float_of_int r.guards_elided));
    ]

(* The two artifact sub-documents a validation verdict certifies. They
   are rendered separately so a verdict hit can splice the proven
   counters into a fresh (unvalidated) recompile's body. *)

let diags_json (c : Pipeline.compiled) =
  (* diagnostics carry pass + function provenance themselves; they
     render exactly as mcc prints them locally *)
  J.Arr
    (List.concat_map
       (fun (_fname, ds) ->
         List.map
           (fun d -> J.Str (Fmt.str "%a" Mac_verify.Diagnostic.pp d))
           ds)
       c.Pipeline.diags)

let tvalid_json (c : Pipeline.compiled) =
  (* per-pass translation-validation counters, each call's classic
     rounds as one [classic-opts] row; present (possibly empty) so a
     full-verified artifact is recognizable as one the validator
     actually gated before publication *)
  J.Obj
    (List.map
       (fun (p, (a : Mac_verify.Tvalid.agg)) ->
         ( p,
           J.Obj
             ([
                ("runs", J.Num (float_of_int a.runs));
                ("blocks", J.Num (float_of_int a.blocks));
                ("skipped", J.Num (float_of_int a.skipped));
                ("regions", J.Num (float_of_int a.regions));
                ("fallbacks", J.Num (float_of_int a.fallbacks));
                ("replays", J.Num (float_of_int a.replays));
              ]
             @ (match a.fallback_reason with
               | Some r -> [ ("fallback_reason", J.Str r) ]
               | None -> [])
             @ [ ("seconds", J.Num a.seconds) ]) ))
       c.Pipeline.tvalid_stats)

let body_of_compiled ?diags ?tvalid (req : Protocol.request)
    (c : Pipeline.compiled) =
  let diags = match diags with Some d -> d | None -> diags_json c in
  let tvalid = match tvalid with Some t -> t | None -> tvalid_json c in
  J.render
    (J.Obj
       [
         ("schema", J.Str artifact_schema);
         ("ok", J.Bool true);
         ("fingerprint", J.Str Mac_vpo.Version.compiler_fingerprint);
         ("machine", J.Str req.machine);
         ("level", J.Str (Pipeline.level_to_string req.level));
         ("verify", J.Str (Pipeline.verify_level_to_string req.verify));
         ( "funcs",
           J.Arr
             (List.map
                (fun f ->
                  J.Obj
                    [
                      ("name", J.Str f.Func.name);
                      ("rtl", J.Str (Fmt.str "%a" Func.pp f));
                    ])
                c.funcs) );
         ( "reports",
           J.Arr
             (List.concat_map
                (fun (fname, rs) -> List.map (report_json fname) rs)
                c.reports) );
         ("diags", diags);
         ("guards_emitted", J.Num (float_of_int c.guards_emitted));
         ("guards_elided", J.Num (float_of_int c.guards_elided));
         ( "elision_reasons",
           J.Obj
             (List.map
                (fun (reason, n) -> (reason, J.Num (float_of_int n)))
                c.elision_reasons) );
         ( "pass_seconds",
           J.Obj (List.map (fun (p, s) -> (p, J.Num s)) c.pass_seconds) );
         ("compile_seconds", J.Num c.compile_seconds);
         ("tvalid", tvalid);
       ])

(* --- validation-verdict documents -------------------------------- *)

(* A verdict records what a successful Vfull compile of this (build,
   machine, level, source) proved: the validator's per-pass counters
   and the diagnostics it emitted. The key ({!Digest_key.resolved})
   already pins build fingerprint, machine, level and source digest;
   the fingerprint and digest are repeated in the body so a verdict can
   be audited (and rejected) on its own content, never trusted on its
   file name alone. *)

let verdict_body ~source_digest (c : Pipeline.compiled) =
  J.render
    (J.Obj
       [
         ("schema", J.Str verdict_schema);
         ("fingerprint", J.Str Mac_vpo.Version.compiler_fingerprint);
         ("source_digest", J.Str source_digest);
         ("diags", diags_json c);
         ("tvalid", tvalid_json c);
       ])

let verdict_parts ~source_digest body =
  match J.parse body with
  | Error _ -> None
  | Ok doc -> (
    match
      ( J.member "schema" doc,
        J.member "fingerprint" doc,
        J.member "source_digest" doc,
        J.member "diags" doc,
        J.member "tvalid" doc )
    with
    | Some (J.Str s), Some (J.Str fp), Some (J.Str sd), Some diags,
      Some tvalid
      when String.equal s verdict_schema
           && String.equal fp Mac_vpo.Version.compiler_fingerprint
           && String.equal sd source_digest ->
      Some (diags, tvalid)
    | _ -> None)

(* --- the compile itself ------------------------------------------ *)

let try_compile cfg source k =
  match Pipeline.compile_source cfg source with
  | compiled -> k compiled
  | exception Pipeline.Verification_failed d ->
    (false, error_body ~kind:"verify" (Fmt.str "%a" Mac_verify.Diagnostic.pp d))
  | exception Mac_minic.Lexer.Error (msg, line, col) ->
    ( false,
      error_body ~kind:"frontend"
        (Printf.sprintf "lexical error at %d:%d: %s" line col msg) )
  | exception Mac_minic.Parser.Error (msg, line, col) ->
    ( false,
      error_body ~kind:"frontend"
        (Printf.sprintf "syntax error at %d:%d: %s" line col msg) )
  | exception (Mac_minic.Typecheck.Error msg | Mac_minic.Lower.Error msg) ->
    (false, error_body ~kind:"frontend" msg)
  | exception Failure msg -> (false, error_body ~kind:"internal" msg)
  | exception e -> (false, error_body ~kind:"internal" (Printexc.to_string e))

let run ?verdicts ?resolved (req : Protocol.request) =
  match Mac_machine.Machine.by_name req.machine with
  | None ->
    (false, error_body ~kind:"request" ("unknown machine " ^ req.machine))
  | Some machine -> (
    let resolved =
      (* the server resolves once per request and passes the result
         down; a bare call (mcc's local fallback) resolves here *)
      match resolved with Some r -> Ok r | None -> Digest_key.resolve req
    in
    match resolved with
    | Error e -> (false, error_body ~kind:"request" e)
    | Ok rv -> (
      let source = rv.Digest_key.r_source in
      let cached_verdict =
        match verdicts with
        | Some vc when req.verify = Pipeline.Vfull -> (
          match Cache.find vc rv.Digest_key.r_verdict_key with
          | Some body ->
            verdict_parts ~source_digest:rv.Digest_key.r_digest body
          | None -> None)
        | _ -> None
      in
      match cached_verdict with
      | Some (diags, tvalid) ->
        (* this exact (build, machine, level, source) compile already
           passed full validation once; the compiler is deterministic,
           so recompile without the validator and splice the certified
           counters back into the body *)
        let cfg =
          Pipeline.config ~level:req.level ~verify:Pipeline.Vnone machine
        in
        try_compile cfg source (fun compiled ->
            (true, body_of_compiled ~diags ~tvalid req compiled))
      | None ->
        let cfg =
          Pipeline.config ~level:req.level ~verify:req.verify machine
        in
        try_compile cfg source (fun compiled ->
            (match verdicts with
            | Some vc when req.verify = Pipeline.Vfull -> (
              (* a verdict the disk refuses is only a lost shortcut *)
              try
                Cache.store vc rv.Digest_key.r_verdict_key
                  (verdict_body ~source_digest:rv.Digest_key.r_digest compiled)
              with Sys_error _ | Unix.Unix_error _ -> ())
            | _ -> ());
            (true, body_of_compiled req compiled))))
