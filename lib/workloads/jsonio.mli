(** Shared hand-rolled JSON kernel.

    The toolchain carries no JSON dependency, so the mccd protocol and
    artifact documents ({!Mac_serve}), mcc's remote-artifact rendering
    and the benchmark's result line and trace ([bench/e2e]) emit and
    parse through this one module, and cannot drift apart. The
    emit/parse pair is pinned by a qcheck round-trip test
    ([test_estimate.ml]): for any finite value, [parse (render v)]
    recovers [v]. Both scan by index and copy runs of plain characters
    at once; qcheck properties hold them to the bytes, values and error
    messages of the per-character kernel they replaced, kept in
    [test/jsonio_oracle.ml]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val render : t -> string
(** Canonical compact emitter. Floats must be finite: whole numbers
    print without a fraction part, everything else with enough digits
    that {!parse} recovers the identical float. *)

val parse : string -> (t, string) result
(** Minimal recursive-descent parser. A [\uXXXX] escape decodes to
    the code point's UTF-8 bytes (one byte up to [\u007f], so every
    string {!render} emits parses back to itself) and a surrogate pair
    to its one code point; a lone surrogate or a non-hex digit decodes
    to ['?']. An error message ends with the byte offset where parsing
    stopped. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on any other constructor. *)
