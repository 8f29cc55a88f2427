(* Output checks. Every operation a run performs goes through one of
   these before it is counted, and any failure makes the command exit
   non-zero. The references never come from the code under test: a
   cell is compared with the workload's OCaml reference and with the
   same cell's first run, a compile with its own first RTL, and a cache
   hit with the bytes the daemon returned when it compiled that key. *)

module W = Mac_workloads.Workloads
module J = Mac_workloads.Jsonio
module Protocol = Mac_serve.Protocol

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;  (** newest first, at most 5 *)
}

let tally () = { attempted = 0; failed = 0; first_failures = [] }

let record t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error msg ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    if List.length t.first_failures < 5 then
      t.first_failures <- msg :: t.first_failures

let exit_code t = if t.failed > 0 then 1 else 0

(* A simulated cell: the output must match the OCaml reference, and the
   cycle count must equal the one the first run of the cell measured. *)
let cell ~name ~cycles (o : W.outcome) =
  if not o.correct then
    Error
      (Printf.sprintf "%s: output differs from the reference (%s)" name
         (Option.value o.error ~default:"no detail"))
  else
    match cycles with
    | Some c when c <> o.metrics.cycles ->
      Error
        (Printf.sprintf "%s: %d cycles, the first run took %d" name
           o.metrics.cycles c)
    | _ -> Ok ()

let rtl_digest (c : Mac_vpo.Pipeline.compiled) =
  Digest.string (String.concat "\n" (List.map Mac_rtl.Func.to_string c.funcs))

(* A repeat must reproduce the first: a compile its RTL, the recompile
   of an evicted key the artifact set-up got ({!content_digest}). *)
let same ~name ~what ~expected digest =
  if Digest.equal expected digest then Ok ()
  else Error (Printf.sprintf "%s: %s differs from the first" name what)

(* A daemon reply: transport errors and failed compiles both fail. *)
let reply ~name = function
  | Error e -> Error (Printf.sprintf "%s: %s" name e)
  | Ok (_, (r : Protocol.reply)) when not r.r_ok ->
    Error (Printf.sprintf "%s: compile failed: %s" name r.r_body)
  | Ok (_, r) -> Ok r

(* A cache hit: the bytes must be those of a compile of that key. *)
let hit ~name ~expected body_digest =
  if List.exists (Digest.equal body_digest) expected then Ok ()
  else
    Error
      (Printf.sprintf "%s: cache hit body differs from the compiled body" name)

(* The artifact minus its timing fields ([seconds], [*_seconds]), which
   differ between two compiles of one key; everything else (RTL,
   reports, verifier counters) must not. *)
let rec untimed = function
  | J.Obj fields ->
    J.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "seconds" || String.ends_with ~suffix:"_seconds" k then None
           else Some (k, untimed v))
         fields)
  | J.Arr xs -> J.Arr (List.map untimed xs)
  | v -> v

let content_digest body =
  match J.parse body with
  | Ok doc -> Digest.string (J.render (untimed doc))
  | Error _ -> Digest.string body
