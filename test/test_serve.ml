(* Tests for the compile service: cache-key canonicalization (qcheck
   properties), wire framing and codecs, the on-disk cache's LRU
   eviction, and fork-based end-to-end runs of the daemon — cache-hit
   byte-identity, single-key sharing between a named bench and its
   source text, error isolation (a poisoned request fails its own
   reply without killing the daemon), hits answered while a miss
   compiles, single-flight, a silent client, and a cache directory
   deleted under the daemon. *)

module Protocol = Mac_serve.Protocol
module Digest_key = Mac_serve.Digest_key
module Cache = Mac_serve.Cache
module Server = Mac_serve.Server
module Client = Mac_serve.Client
module Service = Mac_serve.Service
module W = Mac_workloads.Workloads
module Pipeline = Mac_vpo.Pipeline

let key_of_request ?fingerprint req =
  match Digest_key.of_request ?fingerprint req with
  | Ok k -> k
  | Error e -> Alcotest.failf "digest failed: %s" e

(* The cache key of inline source, unvalidated at O4 on the alpha unless
   told otherwise. *)
let key_of_source ?fingerprint ?(machine = "alpha") ?(level = Pipeline.O4)
    ?(verify = Pipeline.Vnone) source =
  key_of_request ?fingerprint
    (Protocol.request ~level ~verify ~machine (`Source source))

(* --- digest properties ------------------------------------------- *)

(* A token vocabulary that reconstitutes a plausible MiniC kernel; the
   exact program does not matter, only that tokens never glue into new
   tokens because a separator always stands between them. *)
let tokens =
  [ "int"; "main"; "("; ")"; "{"; "char"; "*"; "a"; ";"; "for"; "i"; "=";
    "0"; "<"; "16"; "+"; "]"; "["; "return"; "}" ]

let gen_token_source =
  QCheck.Gen.(
    map
      (fun picks -> String.concat " " (List.map (List.nth tokens) picks))
      (list_size (int_range 1 40) (int_range 0 (List.length tokens - 1))))

(* Random lexical noise between two tokens: whitespace runs, line and
   block comments — exactly the rewrites the canonicalizer claims the
   token stream is invariant under. *)
let separators =
  [| " "; "\t"; "\n"; "  \t  "; " \r\n "; " /* noise */ "; "/* x */ ";
     " /*multi\nline*/ "; " // to end of line\n"; "\n// comment\n" |]

let respace seps src =
  let toks = String.split_on_char ' ' src in
  let sep i = separators.(List.nth seps (i mod List.length seps)) in
  String.concat ""
    (List.mapi (fun i t -> if i = 0 then t else sep i ^ t) toks)

let prop_respace_same_key =
  QCheck.Test.make ~count:200 ~name:"respaced source hashes equal"
    QCheck.(
      pair
        (make ~print:Fun.id gen_token_source)
        (list_of_size Gen.(int_range 1 8) (int_bound (Array.length separators - 1))))
    (fun (src, seps) ->
      let seps = if seps = [] then [ 0 ] else seps in
      let key s = key_of_source s in
      key src = key (respace seps src))

(* Optional request fields reordered, defaulted or spelled out must
   resolve to the same cache key: the digest hashes fields in a fixed
   sequence, never in wire order. *)
let prop_field_order_same_key =
  QCheck.Test.make ~count:200 ~name:"reordered request fields hash equal"
    QCheck.(
      pair (make ~print:Fun.id gen_token_source) (int_bound 5))
    (fun (src, shuffle) ->
      let fields =
        [ ("source", src); ("machine", "alpha"); ("level", "O4");
          ("verify", "full") ]
      in
      let a, b, c, d =
        match fields with
        | [ a; b; c; d ] -> (a, b, c, d)
        | _ -> assert false
      in
      let perm =
        (* six fixed permutations indexed by [shuffle] *)
        match shuffle with
        | 0 -> [ a; b; c; d ]
        | 1 -> [ d; c; b; a ]
        | 2 -> [ b; a; d; c ]
        | 3 -> [ c; d; a; b ]
        | 4 -> [ d; a; b ] (* level omitted: defaults O4 *)
        | _ -> [ c; b; a ] (* verify omitted: defaults full *)
      in
      let json fs =
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "\"%s\":%s" k
                   (Mac_workloads.Jsonio.render (Mac_workloads.Jsonio.Str v)))
               fs)
        ^ "}"
      in
      match
        (Protocol.request_of_json (json fields),
         Protocol.request_of_json (json perm))
      with
      | Ok a, Ok b -> key_of_request a = key_of_request b
      | _ -> false)

(* Distinct programs must not collide: the canonicalizer only erases
   comments and whitespace, never program text. *)
let prop_distinct_sources_distinct_keys =
  QCheck.Test.make ~count:300 ~name:"distinct sources never collide"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let src v = Printf.sprintf "int main() { return %d; }" v in
      let key v = key_of_source (src v) in
      key a <> key b)

let test_corpus_collision_free () =
  (* a denser sweep than the pairwise property: 512 distinct programs,
     512 distinct keys *)
  let keys = Hashtbl.create 512 in
  for v = 0 to 511 do
    let src = Printf.sprintf "int f%d(int x) { return x + %d; }" v v in
    let k = key_of_source src in
    if Hashtbl.mem keys k then Alcotest.failf "collision at %d" v;
    Hashtbl.add keys k ()
  done;
  Alcotest.(check int) "512 distinct keys" 512 (Hashtbl.length keys)

let test_key_dimensions () =
  (* every non-source field participates in the key, including the
     compiler fingerprint — a rebuilt compiler can never serve stale
     artifacts out of a surviving cache directory *)
  let base ?fingerprint ?machine ?level ?verify () =
    key_of_source ?fingerprint ?machine ?level ?verify
      "int main() { return 0; }"
  in
  let k = base () in
  Alcotest.(check bool) "machine in key" true (k <> base ~machine:"mc88100" ());
  Alcotest.(check bool) "level in key" true (k <> base ~level:Pipeline.O1 ());
  Alcotest.(check bool) "verify in key" true
    (k <> base ~verify:Pipeline.Vfull ());
  Alcotest.(check bool) "fingerprint in key" true
    (k <> base ~fingerprint:"mcc/9.9.9+000000000000" ());
  Alcotest.(check string) "default fingerprint is the build's" k
    (base ~fingerprint:Mac_vpo.Version.compiler_fingerprint ())

let test_bench_resolves_to_source () =
  (* --bench image_add and a file holding the same program share one
     cache entry; an unknown bench is an Error, not an exception *)
  let bench = Option.get (W.find "image_add") in
  let of_src src = key_of_request (Protocol.request ~machine:"alpha" src) in
  Alcotest.(check string) "bench = its source"
    (of_src (`Bench "image_add"))
    (of_src (`Source bench.W.source));
  match Digest_key.of_request (Protocol.request ~machine:"alpha" (`Bench "no_such")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown bench should not hash"

(* --- framing and codecs ------------------------------------------ *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      let payloads =
        [ ""; "x"; "{\"k\":\"v\"}"; String.make 70000 'z';
          "bytes \x00\x01\xff and \"quotes\"\n" ]
      in
      List.iter (fun p -> Protocol.write_frame a p) payloads;
      List.iter
        (fun p ->
          match Protocol.read_frame b with
          | Ok got -> Alcotest.(check string) "frame" p got
          | Error e -> Alcotest.failf "read_frame: %s" e)
        payloads;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Protocol.read_frame b with
      | Error _ -> () (* EOF is an Error, not a hang or an exception *)
      | Ok _ -> Alcotest.fail "expected EOF error")

let test_codec_roundtrips () =
  let req =
    Protocol.request ~level:Pipeline.O2 ~verify:Pipeline.Vfull
      ~machine:"mc88100"
      (`Source "int main() {\n  return \"q\\\"uote\";\n}")
  in
  (match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok r -> Alcotest.(check bool) "request roundtrip" true (r = req)
  | Error e -> Alcotest.failf "request: %s" e);
  let hello =
    { Protocol.h_proto = Protocol.proto;
      h_fingerprint = Mac_vpo.Version.compiler_fingerprint }
  in
  (match Protocol.hello_of_json (Protocol.hello_to_json hello) with
  | Ok h -> Alcotest.(check bool) "hello roundtrip" true (h = hello)
  | Error e -> Alcotest.failf "hello: %s" e);
  let reply =
    { Protocol.r_ok = true; r_cached = false; r_key = "abc123";
      r_body = "{\"ok\":true,\n\"rtl\":\"r[1] <- 2\"}" }
  in
  match Protocol.reply_of_json (Protocol.reply_to_json reply) with
  | Ok r -> Alcotest.(check bool) "reply roundtrip" true (r = reply)
  | Error e -> Alcotest.failf "reply: %s" e

(* Bodies a reply must carry unchanged: the header's newline ends at
   the first one, so a body's own newlines, quotes, backslashes, NUL and
   0xff bytes ride after it raw. *)
let awkward_bodies =
  [ ""; String.make 70000 'b'; "line\nline\n"; "\"q\" \\ \x00 \xff end";
    "{\"ok\":true,\n\"rtl\":\"r[1] <- 2\"}\n" ]

let reply_with body =
  { Protocol.r_ok = true; r_cached = true; r_key = "k\n\"1\""; r_body = body }

let test_reply_wire () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      List.iter
        (fun body ->
          let r = reply_with body in
          let wire = Protocol.reply_to_json r in
          let eol = String.index wire '\n' in
          Alcotest.(check string) "body follows the header raw" body
            (String.sub wire (eol + 1) (String.length wire - eol - 1));
          (match Mac_workloads.Jsonio.parse (String.sub wire 0 eol) with
          | Ok doc ->
            Alcotest.(check bool) "body_bytes" true
              (Mac_workloads.Jsonio.member "body_bytes" doc
              = Some (Mac_workloads.Jsonio.Num
                        (float_of_int (String.length body))))
          | Error e -> Alcotest.failf "header: %s" e);
          (* a second frame in the same write arrives intact behind it *)
          Protocol.write_frames a [ "hello"; wire ];
          (match (Protocol.read_frame b, Protocol.read_frame b) with
          | Ok "hello", Ok payload -> (
            match Protocol.reply_of_json payload with
            | Ok r' -> Alcotest.(check bool) "reply roundtrip" true (r' = r)
            | Error e -> Alcotest.failf "reply: %s" e)
          | _ -> Alcotest.fail "frames lost"))
        awkward_bodies)

let test_reply_rejects () =
  let wire = Protocol.reply_to_json (reply_with "0123456789") in
  let eol = String.index wire '\n' in
  List.iter
    (fun (label, text) ->
      match Protocol.reply_of_json text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should not parse" label)
    [ ("no newline", String.sub wire 0 eol);
      ("truncated body", String.sub wire 0 (String.length wire - 1));
      ("body longer than its header says", wire ^ "x");
      ("mac-serve/1 reply",
       "{\"ok\":true,\"cached\":true,\"key\":\"k\",\"body\":\"b\"}");
      ("no body_bytes", "{\"ok\":true,\"cached\":true,\"key\":\"k\"}\nb");
      ("header not JSON", "ok\nb") ]

(* A daemon that answers with another protocol's hello: the client
   names the mismatch instead of misreading the reply. *)
let test_old_daemon_mismatch () =
  let dir = temp_dir "mccd_old" in
  let socket = Filename.concat dir "old.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 1;
  match Unix.fork () with
  | 0 ->
    (try
       let fd, _ = Unix.accept lfd in
       ignore (Protocol.read_frame fd);
       Protocol.write_frame fd
         "{\"proto\":\"mac-serve/1\",\"fingerprint\":\"f\"}";
       Protocol.write_frame fd
         "{\"ok\":true,\"cached\":true,\"key\":\"k\",\"body\":\"{}\"}";
       Unix.close fd
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close lfd;
    Fun.protect
      ~finally:(fun () -> ignore (Unix.waitpid [] pid))
      (fun () ->
        match
          Client.request ~socket
            (Protocol.request ~machine:"alpha" (`Bench "dotproduct"))
        with
        | Ok _ -> Alcotest.fail "a mac-serve/1 daemon was accepted"
        | Error e ->
          Alcotest.(check bool)
            ("protocol mismatch: " ^ e)
            true
            (String.starts_with ~prefix:"protocol mismatch" e))

let test_request_rejects () =
  List.iter
    (fun (label, text) ->
      match Protocol.request_of_json text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should not parse" label)
    [ ("not json", "nonsense");
      ("no machine", "{\"source\":\"int main() { return 0; }\"}");
      ("no source", "{\"machine\":\"alpha\"}");
      ("both sources",
       "{\"source\":\"x\",\"bench\":\"image_add\",\"machine\":\"alpha\"}");
      ("bad level",
       "{\"source\":\"x\",\"machine\":\"alpha\",\"level\":\"O9\"}") ]

(* --- on-disk cache ----------------------------------------------- *)

let test_cache_store_find_evict () =
  let dir = temp_dir "mcc_cache" in
  let c = Cache.open_dir ~max_entries:2 dir in
  let path k = Filename.concat dir (k ^ ".json") in
  Cache.store c "k1" "body one";
  Cache.store c "k2" "body two";
  Alcotest.(check (option string)) "find" (Some "body one") (Cache.find c "k1");
  (* pin mtimes explicitly so the eviction order is deterministic:
     k2 is the LRU entry *)
  Unix.utimes (path "k1") 2000.0 2000.0;
  Unix.utimes (path "k2") 1000.0 1000.0;
  Cache.store c "k3" "body three";
  Alcotest.(check int) "capped at max_entries" 2 (Cache.entries c);
  Alcotest.(check (option string)) "LRU entry evicted" None (Cache.find c "k2");
  Alcotest.(check (option string)) "recent entry kept" (Some "body one")
    (Cache.find c "k1");
  Alcotest.(check (option string)) "new entry kept" (Some "body three")
    (Cache.find c "k3")

(* Temp-file hygiene: opening a cache removes a dead writer's temp
   file and keeps a live one's; a store whose rename fails (the key's
   path is taken by a non-empty directory) or that a read-only
   directory refuses leaves no temp file behind. *)
let test_cache_temp_hygiene () =
  let dir = temp_dir "mcc_cache" in
  let temps () =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> not (Filename.check_suffix n ".json"))
    |> List.sort compare
  in
  let touch name = close_out (open_out (Filename.concat dir name)) in
  let dead_pid =
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
      ignore (Unix.waitpid [] pid);
      pid
  in
  let stale = Printf.sprintf "k1.json.tmp.%d.7" dead_pid
  and live = Printf.sprintf "k2.json.tmp.%d.7" (Unix.getpid ()) in
  touch stale;
  touch live;
  let c = Cache.open_dir dir in
  Alcotest.(check (list string)) "dead writer's temp file swept" [ live ]
    (temps ());
  Sys.remove (Filename.concat dir live);
  let blocker = Filename.concat dir "k3.json" in
  Unix.mkdir blocker 0o700;
  touch "k3.json/occupied";
  (match Cache.store c "k3" "body" with
  | () -> Alcotest.fail "rename over a non-empty directory succeeded"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check (list string)) "failed rename leaves no temp file" []
    (temps ());
  Sys.remove (Filename.concat blocker "occupied");
  Unix.rmdir blocker;
  (* root writes into a read-only directory anyway, so only the absence
     of a temp file is checked, whichever way the store goes *)
  Unix.chmod dir 0o500;
  Fun.protect
    ~finally:(fun () -> Unix.chmod dir 0o700)
    (fun () ->
      (try Cache.store c "k4" "body" with Sys_error _ | Unix.Unix_error _ -> ());
      Alcotest.(check (list string)) "read-only directory: no temp file" []
        (temps ()))

let test_cache_find_bytes () =
  let c = Cache.open_dir (temp_dir "mcc_cache") in
  List.iteri
    (fun i body ->
      let key = Printf.sprintf "k%d" i in
      Cache.store c key body;
      Alcotest.(check (option string)) "find returns the stored bytes"
        (Some body) (Cache.find c key))
    awkward_bodies;
  Alcotest.(check (option string)) "absent key" None (Cache.find c "absent")

let test_cache_find_touches () =
  (* find bumps mtime, so "oldest" means least recently used, not least
     recently written *)
  let dir = temp_dir "mcc_cache" in
  let c = Cache.open_dir ~max_entries:2 dir in
  let path k = Filename.concat dir (k ^ ".json") in
  Cache.store c "old" "o";
  Cache.store c "used" "u";
  Unix.utimes (path "old") 2000.0 2000.0;
  Unix.utimes (path "used") 1000.0 1000.0;
  ignore (Cache.find c "used") (* touch: now newer than "old" *);
  Cache.store c "new" "n";
  Alcotest.(check (option string)) "written-first but touched survives"
    (Some "u") (Cache.find c "used");
  Alcotest.(check (option string)) "untouched entry evicted" None
    (Cache.find c "old")

(* --- end-to-end daemon runs -------------------------------------- *)

(* Fork a daemon child with [jobs] workers serving exactly
   [max_requests] requests from a fresh socket + cache, run [f] with
   the child's pid, then reap the child. [in_child] runs in the child
   before it serves (to arm a pipeline test seam there only). When
   [serve] returns, the child writes its stats for {!daemon_stats}.
   The fork happens while the parent runs no other domain (the workers
   live in the child), so its runtime is never forked mid-domain. *)
let spawn_daemon ?(in_child = ignore) ?(jobs = 2) ~max_requests f =
  let dir = temp_dir "mccd_e2e" in
  let socket = Filename.concat dir "mccd.sock" in
  let cache_dir = Filename.concat dir "cache" in
  match Unix.fork () with
  | 0 ->
    (try
       in_child ();
       let cache = Cache.open_dir cache_dir in
       let st = Server.serve ~jobs ~max_requests ~socket ~cache () in
       let file = Filename.concat dir "stats" in
       Out_channel.with_open_bin (file ^ ".tmp") (fun oc ->
           Printf.fprintf oc "%d %d %d %d %d" st.Server.requests st.hits
             st.misses st.errors st.unpublished);
       Sys.rename (file ^ ".tmp") file
     with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        let rec wait n =
          if Sys.file_exists socket then ()
          else if n = 0 then Alcotest.fail "daemon socket never appeared"
          else (Unix.sleepf 0.05; wait (n - 1))
        in
        wait 200;
        f ~pid ~socket ~cache_dir)

let with_daemon ?in_child ?jobs ~max_requests f =
  spawn_daemon ?in_child ?jobs ~max_requests (fun ~pid:_ -> f)

(* The stats the daemon of [cache_dir] returned, once it has served its
   [max_requests]. *)
let daemon_stats ~cache_dir =
  let file = Filename.concat (Filename.dirname cache_dir) "stats" in
  let rec wait n =
    if Sys.file_exists file then
      Scanf.sscanf
        (In_channel.with_open_bin file In_channel.input_all)
        "%d %d %d %d %d"
        (fun requests hits misses errors unpublished ->
          { Server.requests; hits; misses; errors; unpublished })
    else if n = 0 then Alcotest.fail "daemon never returned its stats"
    else (Unix.sleepf 0.05; wait (n - 1))
  in
  wait 200

let send socket req =
  (* the socket file appears at bind, one step before listen — retry
     the connect-refused window instead of racing the daemon child *)
  let rec go n =
    match Client.request ~socket req with
    | Ok (hello, reply) -> (hello, reply)
    | Error e when n > 0 && String.length e >= 7 && String.sub e 0 7 = "connect"
      ->
      Unix.sleepf 0.05;
      go (n - 1)
    | Error e -> Alcotest.failf "client: %s" e
  in
  go 100

(* Several requests in flight at once need their own connections: send
   on one and leave its reply unread. A reply slower than [client_timeout]
   fails the test instead of hanging it. *)
let client_timeout = 10.0

let connect socket =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO client_timeout;
      fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n > 0 ->
      Unix.close fd;
      Unix.sleepf 0.05;
      go (n - 1)
  in
  go 100

let send_async socket req =
  let fd = connect socket in
  Protocol.write_frame fd (Protocol.request_to_json req);
  fd

let receive fd =
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Protocol.read_frame fd with
      | Error e -> Alcotest.failf "hello: %s" e
      | Ok _ -> (
        match Protocol.read_frame fd with
        | Error e -> Alcotest.failf "reply: %s" e
        | Ok payload -> (
          match Protocol.reply_of_json payload with
          | Ok r -> r
          | Error e -> Alcotest.failf "reply: %s" e)))

(* Armed in a daemon child: every Vfull compile sleeps this long in
   one pass, so a miss stays in flight long enough to race against. *)
let compile_sleep = 0.3

let slow_compiles () =
  Pipeline.test_intercept :=
    Some
      (fun pass _ ->
        if String.equal pass "legalize" then Unix.sleepf compile_sleep)

let test_e2e_hit_byte_identical () =
  with_daemon ~max_requests:2 (fun ~socket ~cache_dir ->
      let req =
        Protocol.request ~level:Pipeline.O2 ~machine:"alpha"
          (`Bench "dotproduct")
      in
      let hello, miss = send socket req in
      Alcotest.(check string) "hello proto" Protocol.proto hello.Protocol.h_proto;
      Alcotest.(check string) "hello fingerprint"
        Mac_vpo.Version.compiler_fingerprint hello.Protocol.h_fingerprint;
      Alcotest.(check bool) "miss ok" true miss.Protocol.r_ok;
      Alcotest.(check bool) "first request compiles" false
        miss.Protocol.r_cached;
      let _, hit = send socket req in
      Alcotest.(check bool) "second request is a cache hit" true
        hit.Protocol.r_cached;
      Alcotest.(check string) "same key" miss.Protocol.r_key
        hit.Protocol.r_key;
      Alcotest.(check string) "hit body byte-identical to the miss"
        miss.Protocol.r_body hit.Protocol.r_body;
      (* the hit is the stored file, byte for byte *)
      let file = Filename.concat cache_dir (miss.Protocol.r_key ^ ".json") in
      let stored = In_channel.with_open_bin file In_channel.input_all in
      Alcotest.(check string) "hit body byte-identical to its cache file"
        stored hit.Protocol.r_body)

let test_e2e_poisoned_request_isolated () =
  with_daemon ~max_requests:3 (fun ~socket ~cache_dir:_ ->
      let poisoned =
        Protocol.request ~machine:"alpha" (`Source "int main( { syntax error")
      in
      let good =
        Protocol.request ~level:Pipeline.O1 ~machine:"alpha"
          (`Bench "dotproduct")
      in
      let _, r1 = send socket poisoned in
      Alcotest.(check bool) "poisoned request fails its own reply" false
        r1.Protocol.r_ok;
      (* the daemon survived: the next request compiles fine *)
      let _, r2 = send socket good in
      Alcotest.(check bool) "daemon survives a poisoned request" true
        r2.Protocol.r_ok;
      (* error bodies are never cached: the poison misses again *)
      let _, r3 = send socket poisoned in
      Alcotest.(check bool) "error not cached" false r3.Protocol.r_cached;
      Alcotest.(check bool) "still fails" false r3.Protocol.r_ok)

let test_e2e_bench_and_source_share_entry () =
  with_daemon ~max_requests:2 (fun ~socket ~cache_dir:_ ->
      let bench = Option.get (W.find "image_add") in
      let _, by_name =
        send socket
          (Protocol.request ~level:Pipeline.O2 ~machine:"alpha"
             (`Bench "image_add"))
      in
      let _, by_text =
        send socket
          (Protocol.request ~level:Pipeline.O2 ~machine:"alpha"
             (`Source bench.W.source))
      in
      Alcotest.(check bool) "name first: compiles" false
        by_name.Protocol.r_cached;
      Alcotest.(check bool) "same text: cache hit" true
        by_text.Protocol.r_cached;
      Alcotest.(check string) "one key" by_name.Protocol.r_key
        by_text.Protocol.r_key;
      Alcotest.(check string) "one body" by_name.Protocol.r_body
        by_text.Protocol.r_body)

(* A miscompile injected inside the daemon child (via the pipeline's
   test seam, inherited across the fork) must be caught by the
   translation validator at Vfull, and the failed compile must never be
   published: the cache stays empty and a retry misses again. *)
let test_e2e_mutant_not_cached () =
  let module Func = Mac_rtl.Func in
  let module Rtl = Mac_rtl.Rtl in
  Pipeline.test_intercept :=
    Some
      (fun pass f ->
        if String.equal pass "cse" then
          Func.set_body f
            (List.filter
               (fun (i : Rtl.inst) ->
                 match i.Rtl.kind with Rtl.Store _ -> false | _ -> true)
               f.Func.body));
  Fun.protect
    ~finally:(fun () -> Pipeline.test_intercept := None)
    (fun () ->
      with_daemon ~max_requests:2 (fun ~socket ~cache_dir ->
          let req =
            Protocol.request ~level:Pipeline.O2 ~verify:Pipeline.Vfull
              ~machine:"alpha" (`Bench "image_add")
          in
          let _, r1 = send socket req in
          Alcotest.(check bool) "mutant compile fails" false
            r1.Protocol.r_ok;
          Alcotest.(check bool) "no artifact published under the key" false
            (Sys.file_exists
               (Filename.concat cache_dir (r1.Protocol.r_key ^ ".json")));
          (* the failure was not cached either: the retry compiles (and
             fails) again instead of hitting *)
          let _, r2 = send socket req in
          Alcotest.(check bool) "mutant never cached" false
            r2.Protocol.r_cached;
          Alcotest.(check bool) "still fails" false r2.Protocol.r_ok))

(* The validation-verdict cache: a Vfull compile stores its verdict;
   a later Vfull request for the same (build, machine, level, source)
   recompiles WITHOUT re-running the validator and splices the
   certified counters into the fresh body. Proven from both sides:
   with a mutant injected through the pipeline seam, the verdict-hit
   path still answers ok (the validator genuinely did not run), while
   a verdict-less run of the same mutant is rejected (it would have
   been caught had validation run). *)
let test_verdict_cache_skips_revalidation () =
  let module J = Mac_workloads.Jsonio in
  let dir = temp_dir "mcc_verdicts" in
  let verdicts = Cache.open_dir dir in
  let req =
    (* verify defaults to Vfull now; image_add stores to an output
       array, so the store-dropping mutant below really miscompiles *)
    Protocol.request ~level:Pipeline.O2 ~machine:"alpha" (`Bench "image_add")
  in
  Alcotest.(check bool) "request defaults to Vfull" true
    (req.Protocol.verify = Pipeline.Vfull);
  let ok1, body1 = Service.run ~verdicts req in
  Alcotest.(check bool) "cold Vfull compile ok" true ok1;
  Alcotest.(check int) "verdict stored" 1 (Cache.entries verdicts);
  let member key body =
    match J.parse body with
    | Ok d -> Option.map J.render (J.member key d)
    | Error _ -> None
  in
  let ok2, body2 = Service.run ~verdicts req in
  Alcotest.(check bool) "verdict-hit recompile ok" true ok2;
  Alcotest.(check bool) "spliced tvalid counters match the proven ones" true
    (member "tvalid" body1 <> None
    && member "tvalid" body1 = member "tvalid" body2);
  Alcotest.(check (option string)) "artifact still claims verify full"
    (Some "\"full\"") (member "verify" body2);
  Alcotest.(check bool) "same compiled RTL" true
    (member "funcs" body1 <> None && member "funcs" body1 = member "funcs" body2);
  (* now the adversarial half: inject a store-dropping mutant *)
  let module Func = Mac_rtl.Func in
  let module Rtl = Mac_rtl.Rtl in
  Pipeline.test_intercept :=
    Some
      (fun pass f ->
        if String.equal pass "cse" then
          Func.set_body f
            (List.filter
               (fun (i : Rtl.inst) ->
                 match i.Rtl.kind with Rtl.Store _ -> false | _ -> true)
               f.Func.body));
  Fun.protect
    ~finally:(fun () -> Pipeline.test_intercept := None)
    (fun () ->
      let ok3, _ = Service.run ~verdicts req in
      Alcotest.(check bool)
        "verdict hit really skips the validator (mutant sails through)" true
        ok3;
      let ok4, _ = Service.run req in
      Alcotest.(check bool)
        "without the verdict cache the same mutant is rejected" false ok4)

(* Head-of-line: a warm key's hit that arrives while a miss compiles
   is answered at once, before the miss, not after the compile. *)
let test_e2e_hit_not_behind_miss () =
  with_daemon ~in_child:slow_compiles ~max_requests:3
    (fun ~socket ~cache_dir:_ ->
      let warm =
        Protocol.request ~level:Pipeline.O2 ~machine:"alpha"
          (`Bench "dotproduct")
      in
      let novel =
        Protocol.request ~level:Pipeline.O2 ~machine:"mc88100"
          (`Bench "dotproduct")
      in
      let _, first = send socket warm in
      Alcotest.(check bool) "warm-up compiles" false first.Protocol.r_cached;
      let miss_fd = send_async socket novel in
      Unix.sleepf 0.05 (* the front has read the miss and queued it *);
      let t0 = Unix.gettimeofday () in
      let _, hit = send socket warm in
      let hit_s = Unix.gettimeofday () -. t0 in
      let miss_done, _, _ = Unix.select [ miss_fd ] [] [] 0.0 in
      Alcotest.(check bool) "hit served from cache" true hit.Protocol.r_cached;
      Alcotest.(check string) "hit bytes" first.Protocol.r_body
        hit.Protocol.r_body;
      Alcotest.(check bool)
        (Printf.sprintf "hit answered in %.3f s, well under the %.1f s compile"
           hit_s compile_sleep)
        true
        (hit_s < compile_sleep /. 2.);
      Alcotest.(check bool) "hit answered before the miss" true
        (miss_done = []);
      let miss = receive miss_fd in
      Alcotest.(check bool) "miss ok" true miss.Protocol.r_ok;
      Alcotest.(check bool) "miss compiled" false miss.Protocol.r_cached)

(* Single-flight: identical misses that arrive while the first compiles
   join it. One compile, one miss reply, and every reply carries its
   bytes. *)
let test_e2e_single_flight () =
  with_daemon ~in_child:slow_compiles ~max_requests:4
    (fun ~socket ~cache_dir:_ ->
      let req =
        Protocol.request ~level:Pipeline.O2 ~machine:"alpha"
          (`Bench "image_add")
      in
      let replies = List.init 4 (fun _ -> send_async socket req) in
      let replies = List.map receive replies in
      List.iter
        (fun r -> Alcotest.(check bool) "ok" true r.Protocol.r_ok)
        replies;
      Alcotest.(check int) "exactly one reply compiled" 1
        (List.length
           (List.filter (fun r -> not r.Protocol.r_cached) replies));
      let first = List.hd replies in
      List.iter
        (fun r ->
          Alcotest.(check string) "same key" first.Protocol.r_key
            r.Protocol.r_key;
          Alcotest.(check string) "byte-identical body" first.Protocol.r_body
            r.Protocol.r_body)
        replies)

(* Two workers compile two misses at once: both replies come back in
   about one compile, not two; a hit that arrives while both workers
   sleep is answered at once; and a duplicate of a key in flight still
   joins its compile instead of taking the other worker. *)
let test_e2e_parallel_compiles () =
  with_daemon ~in_child:slow_compiles ~jobs:2 ~max_requests:5
    (fun ~socket ~cache_dir ->
      let req machine =
        Protocol.request ~level:Pipeline.O2 ~machine (`Bench "dotproduct")
      in
      let warm = req "alpha" in
      let _, first = send socket warm in
      Alcotest.(check bool) "warm-up compiles" false first.Protocol.r_cached;
      let t0 = Unix.gettimeofday () in
      let a = send_async socket (req "mc88100") in
      let b = send_async socket (req "mc68030") in
      let dup = send_async socket (req "mc88100") in
      Unix.sleepf 0.05 (* both misses are queued and taken *);
      let t_hit = Unix.gettimeofday () in
      let _, hit = send socket warm in
      let hit_s = Unix.gettimeofday () -. t_hit in
      Alcotest.(check bool) "hit served from cache" true hit.Protocol.r_cached;
      Alcotest.(check bool)
        (Printf.sprintf "hit answered in %.3f s, under the %.1f s compile"
           hit_s compile_sleep)
        true (hit_s < compile_sleep);
      let ra = receive a and rb = receive b in
      let both_s = Unix.gettimeofday () -. t0 in
      let rdup = receive dup in
      List.iter
        (fun r ->
          Alcotest.(check bool) "miss ok" true r.Protocol.r_ok;
          Alcotest.(check bool) "miss compiled" false r.Protocol.r_cached)
        [ ra; rb ];
      Alcotest.(check bool)
        (Printf.sprintf "two misses done in %.3f s, under 1.6 x %.1f s"
           both_s compile_sleep)
        true
        (both_s < 1.6 *. compile_sleep);
      Alcotest.(check bool) "duplicate joined in flight" true
        rdup.Protocol.r_cached;
      Alcotest.(check string) "duplicate gets the miss's bytes"
        ra.Protocol.r_body rdup.Protocol.r_body;
      let st = daemon_stats ~cache_dir in
      Alcotest.(check int) "three compiles: warm-up and two misses" 3
        st.Server.misses;
      Alcotest.(check int) "two hits: the warm key and the duplicate" 2
        st.Server.hits)

(* Field 19 of a [/proc/.../stat] line, the nice value. The command
   name (field 2) is parenthesized and may hold spaces, so split after
   its closing parenthesis, where field 3 starts. *)
let stat_nice file =
  let line = In_channel.with_open_bin file In_channel.input_all in
  let from = String.rindex line ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub line from (String.length line - from))
  in
  int_of_string (List.nth fields (19 - 3))

(* Each worker lowers its own thread's priority, and only its own: the
   thread that accepts keeps the nice value it forked with. One request
   answered first means the front has served and a worker compiled. *)
let test_e2e_worker_priority () =
  if not (Sys.file_exists "/proc/self/task") then Alcotest.skip ();
  let start = Unix.nice 0 in
  let jobs = 2 in
  spawn_daemon ~jobs ~max_requests:2 (fun ~pid ~socket ~cache_dir:_ ->
      let _, r =
        send socket
          (Protocol.request ~level:Pipeline.O1 ~machine:"alpha"
             (`Bench "dotproduct"))
      in
      Alcotest.(check bool) "served" true r.Protocol.r_ok;
      let task = Printf.sprintf "/proc/%d/task" pid in
      let niced () =
        Array.fold_left
          (fun n tid ->
            match stat_nice (Filename.concat task (tid ^ "/stat")) with
            | v -> if v = Stdlib.min 19 (start + 10) then n + 1 else n
            | exception Sys_error _ -> n)
          0 (Sys.readdir task)
      in
      let rec wait k =
        let n = niced () in
        if n >= jobs || k = 0 then n else (Unix.sleepf 0.05; wait (k - 1))
      in
      Alcotest.(check int) "one niced thread per worker" jobs (wait 100);
      Alcotest.(check int) "the accepting thread keeps its priority" start
        (stat_nice (Printf.sprintf "%s/%d/stat" task pid)))

(* A client that connects and sends nothing costs the front one read
   deadline; the request behind it is still answered. *)
let test_e2e_silent_client () =
  with_daemon ~max_requests:2 (fun ~socket ~cache_dir:_ ->
      let silent = connect socket in
      let r =
        receive
          (send_async socket
             (Protocol.request ~level:Pipeline.O1 ~machine:"alpha"
                (`Bench "dotproduct")))
      in
      Alcotest.(check bool) "request behind a silent client answered" true
        r.Protocol.r_ok;
      let timed_out = receive silent in
      Alcotest.(check bool) "silent client gets an error reply" false
        timed_out.Protocol.r_ok)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* A disk that refuses the publish costs the cache entry, not the reply
   or the worker: with the cache directory (and the verdicts inside it)
   deleted under the daemon, a miss is still served and so is the next
   request. *)
let test_e2e_publish_error_served () =
  with_daemon ~max_requests:3 (fun ~socket ~cache_dir ->
      let req =
        Protocol.request ~level:Pipeline.O1 ~machine:"alpha"
          (`Bench "dotproduct")
      in
      let _, r0 =
        send socket
          (Protocol.request ~level:Pipeline.O2 ~machine:"alpha"
             (`Bench "dotproduct"))
      in
      Alcotest.(check bool) "published before the delete" true
        (Sys.file_exists
           (Filename.concat cache_dir (r0.Protocol.r_key ^ ".json")));
      rm_rf cache_dir;
      let _, r1 = send socket req in
      Alcotest.(check bool) "miss served" true r1.Protocol.r_ok;
      Alcotest.(check bool) "compiled" false r1.Protocol.r_cached;
      let _, r2 = send socket req in
      Alcotest.(check bool) "next request answered" true r2.Protocol.r_ok;
      Alcotest.(check bool) "nothing was published" false
        r2.Protocol.r_cached)

(* The cache directory deleted right after the daemon opens it: every
   compile is served and none is published, and the stats count each
   refused publish. *)
let test_e2e_publish_failures_counted () =
  with_daemon ~max_requests:2 (fun ~socket ~cache_dir ->
      rm_rf cache_dir;
      let req =
        Protocol.request ~level:Pipeline.O1 ~machine:"alpha"
          (`Bench "dotproduct")
      in
      let _, r1 = send socket req in
      let _, r2 = send socket req in
      Alcotest.(check bool) "both served" true
        (r1.Protocol.r_ok && r2.Protocol.r_ok);
      let st = daemon_stats ~cache_dir in
      Alcotest.(check int) "both compiled" 2 st.Server.misses;
      Alcotest.(check int) "every miss unpublished" st.Server.misses
        st.Server.unpublished)

let test_local_fallback () =
  (* no daemon on the socket: request_or_local compiles in-process and
     produces the same canonical artifact document *)
  let req =
    Protocol.request ~level:Pipeline.O1 ~machine:"alpha" (`Bench "dotproduct")
  in
  match Client.request_or_local ~socket:"/nonexistent/mccd.sock" req with
  | `Remote _ -> Alcotest.fail "no daemon should be reachable"
  | `Local (ok, body) ->
    Alcotest.(check bool) "local compile ok" true ok;
    let module J = Mac_workloads.Jsonio in
    let parse b =
      match J.parse b with
      | Ok d -> d
      | Error e -> Alcotest.failf "artifact body: %s" e
    in
    let doc = parse body in
    (match J.member "schema" doc with
    | Some (J.Str s) ->
      Alcotest.(check string) "artifact schema" "mac-serve-artifact/3" s
    | _ -> Alcotest.fail "artifact has no schema string");
    (* the compiled content (not the timing measurements) is
       deterministic: two in-process compiles agree on the RTL *)
    let ok', body' = Service.run req in
    Alcotest.(check bool) "service agrees" true ok';
    let funcs d = Option.map J.render (J.member "funcs" d) in
    Alcotest.(check bool) "same compiled RTL" true
      (funcs doc <> None && funcs doc = funcs (parse body'))

let () =
  Alcotest.run "serve"
    [
      ( "digest",
        List.map QCheck_alcotest.to_alcotest
          [ prop_respace_same_key; prop_field_order_same_key;
            prop_distinct_sources_distinct_keys ]
        @ [
            Alcotest.test_case "corpus collision-free" `Quick
              test_corpus_collision_free;
            Alcotest.test_case "key dimensions" `Quick test_key_dimensions;
            Alcotest.test_case "bench resolves to source" `Quick
              test_bench_resolves_to_source;
          ] );
      ( "protocol",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "codec roundtrips" `Quick test_codec_roundtrips;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_request_rejects;
          Alcotest.test_case "reply carries its body raw" `Quick
            test_reply_wire;
          Alcotest.test_case "malformed replies rejected" `Quick
            test_reply_rejects;
          Alcotest.test_case "mac-serve/1 daemon is a mismatch" `Quick
            test_old_daemon_mismatch;
        ] );
      ( "cache",
        [
          Alcotest.test_case "store/find/evict" `Quick
            test_cache_store_find_evict;
          Alcotest.test_case "find returns the stored bytes" `Quick
            test_cache_find_bytes;
          Alcotest.test_case "find touches LRU order" `Quick
            test_cache_find_touches;
          Alcotest.test_case "temp-file hygiene" `Quick
            test_cache_temp_hygiene;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cache hit is byte-identical" `Quick
            test_e2e_hit_byte_identical;
          Alcotest.test_case "poisoned request isolated" `Quick
            test_e2e_poisoned_request_isolated;
          Alcotest.test_case "bench and source share one entry" `Quick
            test_e2e_bench_and_source_share_entry;
          Alcotest.test_case "mutant compile not cached" `Quick
            test_e2e_mutant_not_cached;
          Alcotest.test_case "verdict cache skips re-validation" `Quick
            test_verdict_cache_skips_revalidation;
          Alcotest.test_case "hit not queued behind a miss" `Quick
            test_e2e_hit_not_behind_miss;
          Alcotest.test_case "single-flight" `Quick test_e2e_single_flight;
          Alcotest.test_case "compiles run in parallel" `Quick
            test_e2e_parallel_compiles;
          Alcotest.test_case "workers run niced" `Quick
            test_e2e_worker_priority;
          Alcotest.test_case "silent client" `Quick test_e2e_silent_client;
          Alcotest.test_case "publish error still served" `Quick
            test_e2e_publish_error_served;
          Alcotest.test_case "publish failures counted" `Quick
            test_e2e_publish_failures_counted;
          Alcotest.test_case "local fallback" `Quick test_local_fallback;
        ] );
    ]
