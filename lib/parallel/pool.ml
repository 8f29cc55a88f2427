(* Deterministic parallel map over OCaml 5 domains.

   The whole pipeline — compile, prepare memory, simulate — is free of
   global mutable state, so independent cells can run on separate domains
   with no coordination beyond a shared work counter. Results are stored
   by input index and returned in input order, so callers that render
   sequentially produce output byte-identical to a serial run regardless
   of the worker count or scheduling.

   A domain this module spawned never spawns again: a nested [map] runs
   serially where it is called. The outer map already keeps the cores
   busy, and on OCaml 5.1 every extra live domain makes each minor
   collection a costlier stop-the-world. *)

let jobs () =
  match Sys.getenv_opt "MAC_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)
  | None -> Stdlib.max 1 (Domain.recommended_domain_count ())

let owned = Domain.DLS.new_key (fun () -> false)

let spawn f =
  Domain.spawn (fun () ->
      Domain.DLS.set owned true;
      f ())

(* The worker count [map] actually uses for [n] work items — exposed so
   reports can record both the requested and the effective count. *)
let effective_jobs ?jobs:requested n =
  if Domain.DLS.get owned then 1
  else
    Stdlib.min n
      (match requested with Some j -> Stdlib.max 1 j | None -> jobs ())

let map ?jobs:requested f xs =
  let n = List.length xs in
  let k = effective_jobs ?jobs:requested n in
  if k <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- Some (try Ok (f input.(i)) with e -> Error e);
          go ()
        end
      in
      go ()
    in
    let domains = List.init k (fun _ -> spawn worker) in
    List.iter Domain.join domains;
    (* deliver in input order; the first failure (by index) re-raises *)
    Array.to_list out
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)
  end

let run ?jobs thunks = map ?jobs (fun f -> f ()) thunks
