(** Structured diagnostics produced by Rtlcheck, the audits and the
    translation validator.

    A diagnostic names the pass whose output it describes, the function
    being checked (when known), optionally the uid of the offending
    instruction, and a severity. The pipeline fails fast on {!Error};
    {!Warning} marks constructs that are suspicious but not provably wrong
    (e.g. a register possibly used before definition on one path);
    {!Info} is commentary for [--verbose] runs.

    Every emitter renders through {!pp}, so provenance has one format:
    [\[severity\] pass(function): message (uid n)]. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  pass : string;  (** the pass whose output was being checked *)
  func : string option;  (** the function being checked, when known *)
  uid : int option;  (** offending instruction, when attributable *)
  message : string;
}

val error : pass:string -> ?func:string -> ?uid:int -> string -> t

val errorf :
  pass:string ->
  ?func:string ->
  ?uid:int ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val warningf :
  pass:string ->
  ?func:string ->
  ?uid:int ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val with_func : string -> t -> t
(** Fill in the function name if the emitter did not know it (existing
    diagnostics keep theirs). *)

val errors : t list -> t list
(** The error-severity subset, in order. *)

val has_errors : t list -> bool

val pp : Format.formatter -> t -> unit
