(* The benchmark's summary statistics. A tail percentile is only
   reported when at least [min_beyond] samples lie beyond its rank: a
   p99 over 32 samples is the single slowest sample, and two runs of
   such a "p99" disagree by whatever that one sample did. *)

let min_beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [pct]% of all
   samples at or below it. Integer arithmetic, so p90 of 100 samples is
   rank 90 exactly. *)
let rank ~pct n = Stdlib.max 1 (((pct * n) + 99) / 100)

let percentile ~pct xs =
  let n = Array.length xs in
  if pct < 1 || pct > 100 then invalid_arg "Stats.percentile"
  else if n = 0 then Error (Printf.sprintf "p%d of no samples" pct)
  else
    let r = rank ~pct n in
    if n - r < min_beyond then
      Error
        (Printf.sprintf "p%d of %d samples has %d beyond it, need %d" pct n
           (n - r) min_beyond)
    else Ok (sorted xs).(r - 1)

(* The plain middle value, for the short lists (set-up repetitions,
   per-run summaries) that the percentile rule does not apply to. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The paper's protocol: of ten runs drop the two highest and the two
   lowest and average the other six. For other counts the same fifth is
   dropped from each end. *)
let trimmed_mean xs =
  let n = Array.length xs in
  if n < 5 then
    Error (Printf.sprintf "trimmed mean of %d samples, need at least 5" n)
  else
    let k = n / 5 in
    let kept = Array.sub (sorted xs) k (n - (2 * k)) in
    Ok (Array.fold_left ( +. ) 0.0 kept /. float_of_int (Array.length kept))

let geomean xs =
  if Array.length xs = 0 then Error "geomean of no samples"
  else if Array.exists (fun x -> not (x > 0.0)) xs then
    Error "geomean of a non-positive sample"
  else
    let logs = Array.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    Ok (exp (logs /. float_of_int (Array.length xs)))
