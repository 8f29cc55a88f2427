(* The host's speed, measured beside the workload.

   The host this benchmark was defined on (2 vCPUs of a 2 GHz Xeon)
   shares its caches and memory with other machines' work. In a busy
   hour every op of a run takes two to three times as long as in a
   quiet one, and runs a minute apart differ by more than any bound
   worth setting.
   So a fixed kernel, which calls no code of the repository, is timed
   throughout the run while the workload is paused, and every time the
   benchmark reports is scaled by [reference_ms] / (the run's mean
   kernel time), every rate by the inverse. The load changes from
   second to second and a run's ops feel its average, hence the mean;
   a kernel timed only before and after a run tracks it worse than no
   scaling at all (bench/e2e/README.md).

   The kernel runs in a child process ([bench.exe --host-kernel]) that
   stays up for the run and runs it on request. Its heap is its own, so
   neither the workload's live heap nor its collector can slow the
   kernel, and it only runs while the workload is paused: a change to
   the system can reach the kernel's time only through the host itself.
   A change in the host's load slows the kernel too and mostly cancels,
   though not exactly, because the kernel and the workloads use the
   host differently. *)

(* About what the kernel takes on the host above when it is quiet, so
   scaled times read close to raw ones. *)
let reference_ms = 2.0

(* Between in-process ops, a sample every tenth of a second. *)
let period_ns = 100_000_000L

(* Allocation, hashing and sorting, like the compiler's own work. *)
let kernel () =
  let h = Hashtbl.create 64 in
  for i = 0 to 3999 do
    Hashtbl.replace h (i * 7919 mod 4001) (string_of_int i)
  done;
  let l = ref [] in
  for i = 0 to 3999 do
    match Hashtbl.find_opt h i with Some s -> l := s :: !l | None -> ()
  done;
  List.length (List.sort compare !l)

(* The child's side: for each line [n] on standard input, time the
   kernel [n] times and print one time in ms per line. *)
let child_main () =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      for _ = 1 to int_of_string line do
        let t0 = Span.now_ns () in
        ignore (Sys.opaque_identity (kernel ()));
        Printf.printf "%.6f\n"
          (Int64.to_float (Int64.sub (Span.now_ns ()) t0) *. 1e-6)
      done;
      flush stdout;
      loop ()
  in
  loop ()

type t = {
  pid : int;
  requests : out_channel;
  times : in_channel;
  mutable kernel_ms : float list;
  mutable spent_ns : int64;  (** wall-clock spent sampling so far *)
  mutable next_ns : int64;
}

let start ~exe =
  let child_in, requests = Unix.pipe ~cloexec:true () in
  let times, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "--host-kernel" |] child_in child_out
      Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  {
    pid;
    requests = Unix.out_channel_of_descr requests;
    times = Unix.in_channel_of_descr times;
    kernel_ms = [];
    spent_ns = 0L;
    next_ns = 0L;
  }

let stop h =
  close_out_noerr h.requests;
  close_in_noerr h.times;
  ignore (Unix.waitpid [] h.pid)

(* Time the kernel [n] times, while the caller's workload waits. *)
let sample h n =
  let t0 = Span.now_ns () in
  Printf.fprintf h.requests "%d\n%!" n;
  for _ = 1 to n do
    h.kernel_ms <- float_of_string (input_line h.times) :: h.kernel_ms
  done;
  h.spent_ns <- Int64.add h.spent_ns (Int64.sub (Span.now_ns ()) t0)

(* Called between in-process ops: sample when a period has passed. *)
let tick h =
  if Int64.compare (Span.now_ns ()) h.next_ns >= 0 then begin
    sample h 1;
    h.next_ns <- Int64.add (Span.now_ns ()) period_ns
  end

(* Wall-clock seconds since [t0], less the sampling in them; [spent0]
   is [spent_ns] at [t0]. *)
let busy_seconds h ~t0 ~spent0 =
  Span.seconds_since t0 -. (Int64.to_float (Int64.sub h.spent_ns spent0) *. 1e-9)

(* Multiply a time by this, divide a rate by it. *)
let factor h =
  let n = List.length h.kernel_ms in
  reference_ms /. (List.fold_left ( +. ) 0.0 h.kernel_ms /. float_of_int n)

let scale f (name, value, unit) =
  match unit with
  | "s" | "ms" | "us" -> (name, value *. f, unit)
  | "1/s" | "Minst/s" -> (name, value /. f, unit)
  | _ -> (name, value, unit)
