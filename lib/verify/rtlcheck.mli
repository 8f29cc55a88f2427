(** Per-pass RTL well-formedness verification (Rtlcheck layer 1).

    Every transformation pass of the pipeline must leave the function in a
    state the rest of the back end (and the simulator) can rely on. This
    module re-derives those invariants from scratch — deliberately sharing
    no code with the passes it checks:

    - structure: unique labels and uids, defined branch targets, a body
      that cannot fall off the end, and no use of an undefined register
      along the straight-line prefix;
    - operand sanity: [Extract]/[Insert] byte positions inside the 64-bit
      register, shift amounts inside the operand width, memory access
      widths the target machine can actually issue (checked only once
      legalization has run, via [?machine]);
    - CFG invariants via {!Mac_cfg.Cfg}: unreachable blocks;
    - definedness via {!Mac_dataflow.Reaching} and
      {!Mac_dataflow.Liveness}: a use no definition reaches on {e any}
      path is an error; a register live into the entry block that is
      neither a parameter nor the frame pointer is possibly read before
      being written on {e some} path and reported as a warning. *)

open Mac_rtl

val structural_checks : pass:string -> Func.t -> Diagnostic.t list
(** The structural layer alone, every diagnostic an error tagged with
    [pass] and the function's name: duplicate uids and labels, undefined
    branch targets, an empty body or one that can fall through its last
    instruction, and a use of a register that is neither a parameter,
    the frame pointer nor defined earlier in the straight-line prefix
    (the instructions before the first label or terminator). It builds
    no CFG and runs no dataflow, so it is what the pipeline checks
    between passes at [Vnone]. *)

val check_func :
  ?machine:Mac_machine.Machine.t ->
  ?analysis:Mac_dataflow.Analysis.t ->
  pass:string ->
  Func.t ->
  Diagnostic.t list
(** All diagnostics for [f], tagged with [pass]. When [?machine] is given
    the memory widths of every load/store must be legal for it — only
    meaningful after {!Mac_opt.Legalize} has run. Errors from
    {!structural_checks} suppress the CFG- and dataflow-based layers,
    which assume a buildable graph (so a prefix use of an undefined
    register is reported once, by the structural layer).

    When [?analysis] is given, the checker first audits the manager
    itself: a memoised CFG view that no longer matches the body
    instruction-for-instruction means some pass declared a [preserves]
    set it did not honour, reported as an error (and the flow checks,
    which would consume the stale facts, are suppressed). When the cache
    is coherent the flow checks reuse its CFG, reaching and liveness
    facts instead of recomputing them. *)
