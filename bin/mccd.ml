(* mccd: the persistent compile daemon.

   Accepts mcc compile requests (MiniC source or a named built-in
   workload + machine + level + verify level) over a length-framed
   Unix-socket protocol, answers cache hits on the accepting domain
   while persistent worker domains compile the misses, and memoises
   artifacts in a content-addressed on-disk cache keyed by
   (input digest, machine, level, verify level, compiler fingerprint)
   — a million identical requests cost one compile.

     mccd --socket /tmp/mccd.sock --cache /tmp/mccd-cache
     mcc prog.c --machine alpha -O O4 --remote /tmp/mccd.sock *)

open Cmdliner
module Serve = Mac_serve

let socket_arg =
  Arg.(value & opt string "./mccd.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket to listen on (an existing socket file is \
                 replaced).")

let cache_arg =
  Arg.(value & opt string "./mccd-cache"
       & info [ "cache" ] ~docv:"DIR"
           ~doc:"Content-addressed artifact cache directory (created if \
                 missing). Safe to share between daemons: writes are \
                 atomic and keys are content-addressed.")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Compile worker domains, beside the domain that accepts \
                 and answers cache hits (default: MAC_JOBS, else the \
                 recommended domain count: one per core). Workers run at \
                 a lower priority than the accepting domain, so hits are \
                 answered promptly while every core compiles.")

let max_entries_arg =
  Arg.(value & opt int 4096
       & info [ "max-entries" ] ~docv:"N"
           ~doc:"Cache capacity in artifacts; least-recently-used \
                 entries are evicted past it.")

let max_requests_arg =
  Arg.(value & opt (some int) None
       & info [ "max-requests" ] ~docv:"N"
           ~doc:"Stop accepting after reading N requests, answer them and \
                 exit (smoke tests); default is to serve forever.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-compile log lines.")

let main socket cache_dir jobs max_entries max_requests quiet =
  let cache = Serve.Cache.open_dir ~max_entries cache_dir in
  let log = if quiet then ignore else fun s -> Fmt.epr "[mccd] %s@." s in
  log
    (Printf.sprintf "%s listening on %s, cache %s (%d entries)"
       Mac_vpo.Version.compiler_fingerprint socket
       (Serve.Cache.dir cache) (Serve.Cache.entries cache));
  match
    Serve.Server.serve ?jobs ?max_requests ~log ~socket ~cache ()
  with
  | stats ->
    Fmt.pr
      "mccd: served %d request(s): %d hit(s), %d miss(es), %d error(s), %d \
       unpublished@."
      stats.Serve.Server.requests stats.hits stats.misses stats.errors
      stats.unpublished;
    0
  | exception Unix.Unix_error (e, fn, arg) ->
    Fmt.epr "mccd: %s(%s): %s@." fn arg (Unix.error_message e);
    1

let cmd =
  let doc = "persistent MiniC compile daemon with a content-addressed cache" in
  Cmd.v
    (Cmd.info "mccd" ~doc ~version:Mac_vpo.Version.compiler_fingerprint)
    Term.(
      const main $ socket_arg $ cache_arg $ jobs_arg $ max_entries_arg
      $ max_requests_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
