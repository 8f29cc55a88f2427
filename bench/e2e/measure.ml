(* What one run of a workload measured, and the end-to-end metrics
   derived from it. Every workload reports the same metrics, because
   BENCHMARK.json compares each metric on each workload; an
   "op" is a simulated cell (paper-sweep), a compile (compile-grid) or
   a request (serve-mixed, serve-churn). *)

type t = {
  setup_s : float array;  (** each set-up repetition's wall-clock *)
  elapsed_s : float;  (** the measured window *)
  ops : int;  (** ops completed in the window *)
  latencies_ms : float array;
      (** the ops the latency percentiles are taken over: every op, but
          only the hits on serve-mixed *)
  peak_rss_mb : float;
  tally : Check.tally;
  notes : string list;  (** workload-specific lines, printed as they are *)
  spans : Span.span list;  (** empty unless traced *)
  counts : (string * float) list;
      (** exact per-layer counts over the workload's distinct ops; empty
          unless traced *)
}

(* The set-up is repeated and its median reported, so one slow
   repetition does not move [setup_s]. *)
let setup_reps = 3

(* [f ()] and its seconds by the monotonic clock, less the time the
   host kernel took inside it. *)
let busy host f =
  let t0 = Span.now_ns () and spent0 = host.Host.spent_ns in
  let x = f () in
  (x, Host.busy_seconds host ~t0 ~spent0)

(* VmHWM: the peak resident set of a live process, here or a child. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %f kB"
            (fun kb -> kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The run's own time limit, checked between ops. *)
let deadline seconds = Int64.add (Span.now_ns ()) (Span.ns_of_seconds seconds)
let before deadline = Int64.compare (Span.now_ns ()) deadline < 0

(* [o4_cycles] is {!Sweep.o4_cycles_geomean}, which every workload
   reports. *)
let end_to_end r ~o4_cycles =
  let n = Array.length r.latencies_ms in
  let ( let* ) = Result.bind in
  let* p50 = Stats.percentile ~pct:50 r.latencies_ms in
  let* p90 = Stats.percentile ~pct:90 r.latencies_ms in
  Ok
    [
      ("setup_s", Stats.median r.setup_s, "s", "median of set-ups");
      ( "ops_per_s",
        float_of_int r.ops /. r.elapsed_s,
        "1/s",
        Printf.sprintf "%d ops in %.3f s" r.ops r.elapsed_s );
      ("op_ms_p50", p50, "ms", Printf.sprintf "n=%d" n);
      ( "op_ms_p90",
        p90,
        "ms",
        Printf.sprintf "n=%d, %d beyond" n (n - Stats.rank ~pct:90 n) );
      ("peak_rss_mb", r.peak_rss_mb, "MB", "VmHWM");
      ("o4_cycles_geomean", o4_cycles, "cycles", "21 O4 cells, exact");
    ]
