type severity = Error | Warning | Info

type t = {
  severity : severity;
  pass : string;
  func : string option;
  uid : int option;
  message : string;
}

let make severity ~pass ?func ?uid message =
  { severity; pass; func; uid; message }

let error ~pass = make Error ~pass
let warning ~pass = make Warning ~pass

let errorf ~pass ?func ?uid fmt =
  Format.kasprintf (fun s -> error ~pass ?func ?uid s) fmt

let warningf ~pass ?func ?uid fmt =
  Format.kasprintf (fun s -> warning ~pass ?func ?uid s) fmt

let with_func func d =
  match d.func with Some _ -> d | None -> { d with func = Some func }

let errors ds = List.filter (fun d -> d.severity = Error) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

(* One provenance format for every emitter:
   [severity] pass(function): message (uid n) *)
let pp ppf d =
  let sev =
    match d.severity with
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "info"
  in
  Format.fprintf ppf "[%s] %s" sev d.pass;
  Option.iter (fun f -> Format.fprintf ppf "(%s)" f) d.func;
  Format.fprintf ppf ": %s" d.message;
  Option.iter (fun uid -> Format.fprintf ppf " (uid %d)" uid) d.uid
