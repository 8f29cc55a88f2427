(* Tests for the Rtlcheck verifier: hand-built invalid RTL must be
   flagged, mutations of genuinely coalesced functions must be caught by
   the independent safety audit, and O0-vs-O4 differential execution must
   agree on every built-in workload for all three paper machines. *)

open Mac_rtl
module Machine = Mac_machine.Machine
module Coalesce = Mac_core.Coalesce
module Diagnostic = Mac_verify.Diagnostic
module Rtlcheck = Mac_verify.Rtlcheck
module Audit = Mac_verify.Audit
module Pipeline = Mac_vpo.Pipeline
module W = Mac_workloads.Workloads

(* The classic fixed point, which must converge inside its budget. *)
let classic_opts f =
  match Pipeline.classic_opts f with
  | [] -> ()
  | d :: _ -> Alcotest.fail (Fmt.str "%a" Diagnostic.pp d)

let reg = Reg.make

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let has_error ds sub =
  List.exists
    (fun (d : Diagnostic.t) ->
      d.severity = Diagnostic.Error && contains d.message sub)
    ds

let has_warning ds sub =
  List.exists
    (fun (d : Diagnostic.t) ->
      d.severity = Diagnostic.Warning && contains d.message sub)
    ds

let check_flags name ds sub =
  Alcotest.(check bool)
    (Printf.sprintf "%s flagged (got: %s)" name
       (Fmt.str "%a" (Fmt.list ~sep:(Fmt.any "; ") Diagnostic.pp) ds))
    true (has_error ds sub)

(* --- layer 1: hand-built invalid RTL -------------------------------- *)

let test_clean_function () =
  let f = Func.create ~name:"t" ~params:[ reg 0 ] in
  Func.append f (Rtl.Move (reg 1, Rtl.Imm 7L));
  Func.append f (Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 0), Rtl.Reg (reg 1)));
  Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 2))));
  Alcotest.(check int) "no diagnostics" 0
    (List.length (Rtlcheck.check_func ~pass:"test" f))

let test_duplicate_label () =
  let f = Func.create ~name:"t" ~params:[] in
  Func.append f (Rtl.Label "L");
  Func.append f (Rtl.Label "L");
  Func.append f (Rtl.Ret None);
  check_flags "duplicate label"
    (Rtlcheck.check_func ~pass:"test" f)
    "duplicate label"

let test_undefined_target () =
  let f = Func.create ~name:"t" ~params:[] in
  Func.append f (Rtl.Jump "nowhere");
  check_flags "undefined target"
    (Rtlcheck.check_func ~pass:"test" f)
    "undefined branch target"

let test_fallthrough_end () =
  let f = Func.create ~name:"t" ~params:[] in
  Func.append f (Rtl.Move (reg 1, Rtl.Imm 0L));
  check_flags "fall-through end"
    (Rtlcheck.check_func ~pass:"test" f)
    "fall through"

let test_undefined_register () =
  let f = Func.create ~name:"t" ~params:[] in
  Func.append f (Rtl.Label "top");
  Func.append f (Rtl.Move (reg 1, Rtl.Reg (reg 2)));
  Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 1))));
  check_flags "undefined register"
    (Rtlcheck.check_func ~pass:"test" f)
    "undefined register"

let test_self_defined_register () =
  (* the only definition of r2 is the instruction reading it: its own
     definition comes after its use, so the use is still undefined *)
  let f = Func.create ~name:"t" ~params:[] in
  Func.append f (Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 2), Rtl.Imm 1L));
  Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 2))));
  let incr = (List.hd f.body).Rtl.uid in
  match Diagnostic.errors (Rtlcheck.check_func ~pass:"test" f) with
  | [ d ] ->
    Alcotest.(check (option int)) "at the increment" (Some incr) d.uid;
    Alcotest.(check bool) "undefined register" true
      (String.starts_with ~prefix:"use of undefined register" d.message)
  | ds -> Alcotest.failf "expected one error, got %d" (List.length ds)

let test_maybe_undefined () =
  (* r5 is defined on the fall-through path only; the use after the join
     is a warning, not an error. *)
  let f = Func.create ~name:"t" ~params:[ reg 0 ] in
  Func.append f
    (Rtl.Branch
       { cmp = Rtl.Eq; l = Rtl.Reg (reg 0); r = Rtl.Imm 0L; target = "skip" });
  Func.append f (Rtl.Move (reg 5, Rtl.Imm 1L));
  Func.append f (Rtl.Label "skip");
  Func.append f (Rtl.Move (reg 6, Rtl.Reg (reg 5)));
  Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 6))));
  let ds = Rtlcheck.check_func ~pass:"test" f in
  Alcotest.(check bool) "no errors" false (Diagnostic.has_errors ds);
  Alcotest.(check bool) "warned" true
    (has_warning ds "read before it is written")

let test_extract_escapes_register () =
  let f = Func.create ~name:"t" ~params:[ reg 0 ] in
  Func.append f
    (Rtl.Extract
       { dst = reg 1; src = reg 0; pos = Rtl.Imm 7L; width = Width.W16;
         sign = Rtl.Unsigned });
  Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 1))));
  check_flags "extract escapes register"
    (Rtlcheck.check_func ~pass:"test" f)
    "leaves the 64-bit register"

let test_illegal_width () =
  (* the Alpha has no byte loads; without ~machine the same function is
     accepted (pre-legalization IR). *)
  let f = Func.create ~name:"t" ~params:[ reg 0 ] in
  Func.append f
    (Rtl.Load
       { dst = reg 1;
         src = { Rtl.base = reg 0; disp = 0L; width = Width.W8; aligned = true };
         sign = Rtl.Unsigned });
  Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 1))));
  check_flags "illegal width"
    (Rtlcheck.check_func ~machine:Machine.alpha ~pass:"test" f)
    "not legal on alpha";
  check_flags "width scan alone"
    (Rtlcheck.width_checks ~machine:Machine.alpha ~pass:"test" f)
    "not legal on alpha";
  Alcotest.(check int) "legal on the 68030" 0
    (List.length
       (Rtlcheck.width_checks ~machine:Machine.mc68030 ~pass:"test" f));
  Alcotest.(check bool) "legal without a machine" false
    (Diagnostic.has_errors (Rtlcheck.check_func ~pass:"test" f))

let test_unreachable_block () =
  let f = Func.create ~name:"t" ~params:[] in
  Func.append f (Rtl.Jump "out");
  Func.append f (Rtl.Label "dead");
  Func.append f (Rtl.Jump "out");
  Func.append f (Rtl.Label "out");
  Func.append f (Rtl.Ret None);
  let ds = Rtlcheck.check_func ~pass:"test" f in
  Alcotest.(check bool) "warned" true (has_warning ds "unreachable")

(* --- layer 3 plumbing: the pipeline names the failing pass ----------- *)

let test_pipeline_names_failing_pass () =
  let f = Func.create ~name:"bad" ~params:[] in
  Func.append f (Rtl.Move (reg 1, Rtl.Imm 0L));
  let cfg = Pipeline.config ~level:Pipeline.O0 Machine.alpha in
  match Pipeline.compile_funcs cfg [ f ] with
  | _ -> Alcotest.fail "expected compilation to fail"
  | exception Pipeline.Verification_failed d ->
    Alcotest.(check string) "names the pass" "input" d.pass;
    Alcotest.(check (option string)) "names the function" (Some "bad") d.func

(* A checkpoint that finds the body it checked last and only the machine
   new runs the width scan alone, and a width the scan rejects is still
   reported. The intercept hands the legalize checkpoint back the body
   the cleanup checkpoint checked, the same list, whose 16-bit loads the
   Alpha cannot issue. *)
let test_checkpoint_new_machine_checks_widths () =
  let last = ref [] in
  Pipeline.test_intercept :=
    Some
      (fun pass f ->
        if String.equal pass "legalize" then Func.set_body f !last
        else last := f.Func.body);
  Fun.protect
    ~finally:(fun () -> Pipeline.test_intercept := None)
    (fun () ->
      let cfg =
        Pipeline.config ~level:Pipeline.O1 ~verify:Pipeline.Vfull
          Machine.alpha
      in
      match Pipeline.compile_source cfg W.dotproduct_src with
      | _ -> Alcotest.fail "illegal width accepted"
      | exception Pipeline.Verification_failed d ->
        Alcotest.(check string) "names the pass" "legalize" d.pass;
        check_flags "illegal width" [ d ] "not legal on alpha")

(* One structural checker at every verify level: each ill-formed input
   fails the [input] checkpoint with a [Verification_failed] naming the
   pass and the function, at [Vnone] as at [Vir] and [Vfull]. *)
let ill_formed =
  let mk name kinds =
    let f = Func.create ~name ~params:[ reg 0 ] in
    List.iter (Func.append f) kinds;
    f
  in
  [
    ( "duplicate uid",
      (fun () ->
        let f = mk "dup_uid" [] in
        f.body <-
          [ { Rtl.uid = 0; kind = Rtl.Move (reg 1, Rtl.Imm 0L) };
            { Rtl.uid = 0; kind = Rtl.Ret (Some (Rtl.Reg (reg 1))) } ];
        f),
      "duplicate uid 0" );
    ( "duplicate label",
      (fun () ->
        mk "dup_label" [ Rtl.Label "A"; Rtl.Label "A"; Rtl.Ret None ]),
      "duplicate label A" );
    ( "undefined target",
      (fun () -> mk "no_target" [ Rtl.Jump "nowhere" ]),
      "undefined branch target nowhere" );
    ( "missing terminator",
      (fun () -> mk "no_ret" [ Rtl.Move (reg 1, Rtl.Reg (reg 0)) ]),
      "fall through" );
    ( "prefix use of undefined register",
      (fun () ->
        mk "undef_use"
          [ Rtl.Move (reg 1, Rtl.Reg (reg 2));
            Rtl.Ret (Some (Rtl.Reg (reg 1))) ]),
      "use of undefined register" );
  ]

let test_single_checker_every_level () =
  List.iter
    (fun verify ->
      let level = Pipeline.verify_level_to_string verify in
      List.iter
        (fun (what, make, message) ->
          let f = make () in
          let cfg = Pipeline.config ~level:Pipeline.O1 ~verify Machine.alpha in
          match Pipeline.compile_funcs cfg [ f ] with
          | _ -> Alcotest.failf "%s at %s: compiled" what level
          | exception Pipeline.Verification_failed d ->
            let ctx = Printf.sprintf "%s at %s" what level in
            Alcotest.(check string) (ctx ^ ": pass") "input" d.pass;
            Alcotest.(check (option string))
              (ctx ^ ": function") (Some f.name) d.func;
            Alcotest.(check bool)
              (Printf.sprintf "%s: message (%s)" ctx d.message)
              true (contains d.message message))
        ill_formed)
    Pipeline.[ Vnone; Vir; Vfull ];
  (* and a well-formed loop passes the structural layer *)
  let f = Func.create ~name:"loop" ~params:[] in
  Func.append f (Rtl.Label "L0");
  Func.append f (Rtl.Jump "L0");
  Alcotest.(check int) "valid loop" 0
    (List.length (Rtlcheck.structural_checks ~pass:"input" f))

(* --- layer 2: mutating genuinely coalesced functions ----------------- *)

let forced =
  { Coalesce.default with
    respect_profitability = false;
    icache_guard = false }

(* Lower + classic opts + the coalescer itself — the audit's contract is
   to run on the coalesce pass's direct output, before legalization. *)
let coalesced src machine =
  let f = List.hd (Mac_minic.Lower.compile src) in
  classic_opts f;
  let reports = Coalesce.run f ~machine forced in
  let r =
    match
      List.find_opt (fun r -> r.Coalesce.status = Coalesce.Coalesced) reports
    with
    | Some r -> r
    | None -> Alcotest.fail "expected the loop to be coalesced"
  in
  (f, reports, r)

let image_add_src = (Option.get (W.find "image_add")).W.source

let test_audit_accepts_real_output () =
  List.iter
    (fun machine ->
      List.iter
        (fun src ->
          let f, reports, _ = coalesced src machine in
          let ds = Audit.run f ~machine ~reports in
          Alcotest.(check int)
            (Printf.sprintf "no diagnostics on %s (got: %s)"
               machine.Machine.name
               (Fmt.str "%a" (Fmt.list ~sep:(Fmt.any "; ") Diagnostic.pp) ds))
            0 (List.length ds))
        [ W.dotproduct_src; image_add_src ])
    Machine.all

let test_audit_catches_dropped_alignment_guard () =
  let f, reports, r = coalesced W.dotproduct_src Machine.alpha in
  let safe = Option.get r.Coalesce.safe_label in
  (* the last [<> 0 -> safe] branch of the dispatch block is an alignment
     guard (the first is the unroller's divisibility test) *)
  let body = Array.of_list f.Func.body in
  let last = ref (-1) in
  Array.iteri
    (fun i (inst : Rtl.inst) ->
      match inst.kind with
      | Rtl.Branch { cmp = Rtl.Ne; r = Rtl.Imm 0L; target; _ }
        when String.equal target safe ->
        last := i
      | _ -> ())
    body;
  Alcotest.(check bool) "found an alignment guard" true (!last >= 0);
  Func.set_body f
    (List.filteri (fun i _ -> i <> !last) (Array.to_list body));
  check_flags "dropped alignment guard"
    (Audit.run f ~machine:Machine.alpha ~reports)
    "no alignment guard"

let test_audit_catches_escaping_extract () =
  let f, reports, _ = coalesced W.dotproduct_src Machine.alpha in
  let mutated = ref false in
  Func.set_body f
    (List.map
       (fun (i : Rtl.inst) ->
         match i.kind with
         | Rtl.Extract { dst; src; pos = Rtl.Imm _; width; sign }
           when not !mutated ->
           mutated := true;
           { i with
             kind = Rtl.Extract { dst; src; pos = Rtl.Imm 7L; width; sign } }
         | _ -> i)
       f.Func.body);
  Alcotest.(check bool) "found an extract" true !mutated;
  check_flags "escaping extract"
    (Audit.run f ~machine:Machine.alpha ~reports)
    "escapes"

let test_audit_catches_missing_insert () =
  let f, reports, _ = coalesced image_add_src Machine.alpha in
  let dropped = ref false in
  Func.set_body f
    (List.filter
       (fun (i : Rtl.inst) ->
         match i.kind with
         | Rtl.Insert _ when not !dropped ->
           dropped := true;
           false
         | _ -> true)
       f.Func.body);
  Alcotest.(check bool) "found an insert" true !dropped;
  check_flags "missing insert"
    (Audit.run f ~machine:Machine.alpha ~reports)
    "no member store supplied"

let test_audit_catches_weakened_alias_guard () =
  let f, reports, r = coalesced image_add_src Machine.alpha in
  let safe = Option.get r.Coalesce.safe_label in
  let mutated = ref false in
  Func.set_body f
    (List.map
       (fun (i : Rtl.inst) ->
         match i.kind with
         | Rtl.Branch { cmp = Rtl.Ltu; l; r = rhs; target }
           when String.equal target safe && not !mutated ->
           mutated := true;
           { i with kind = Rtl.Branch { cmp = Rtl.Leu; l; r = rhs; target } }
         | _ -> i)
       f.Func.body);
  Alcotest.(check bool) "found an alias branch" true !mutated;
  check_flags "weakened alias guard"
    (Audit.run f ~machine:Machine.alpha ~reports)
    "alias"

let test_audit_catches_clobbered_wide_value () =
  let f, reports, _ = coalesced W.dotproduct_src Machine.alpha in
  (* zero the wide register between the wide load and its extracts *)
  let rec clobber = function
    | [] -> []
    | ({ Rtl.kind = Rtl.Extract { src; _ }; _ } as i) :: rest ->
      Func.inst f (Rtl.Move (src, Rtl.Imm 0L)) :: i :: rest
    | i :: rest -> i :: clobber rest
  in
  Func.set_body f (clobber f.Func.body);
  check_flags "clobbered wide value"
    (Audit.run f ~machine:Machine.alpha ~reports)
    "clobbered"

(* --- differential execution across the paper's machines -------------- *)

let test_differential machine () =
  List.iter
    (fun (b : W.t) ->
      let d =
        W.differential ~size:24 ~verify:Pipeline.Vfull ~machine
          ~level:Pipeline.O4 b
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: O0 vs O4 agree%s" b.W.name
           (match d.W.detail with Some m -> " (" ^ m ^ ")" | None -> ""))
        true d.W.agree;
      Alcotest.(check bool)
        (Printf.sprintf "%s: reference output correct" b.W.name)
        true
        (d.W.base.W.correct && d.W.opt.W.correct);
      List.iter
        (fun (_, ds) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: no verifier errors" b.W.name)
            false (Diagnostic.has_errors ds))
        d.W.opt.W.diags)
    (W.dotproduct :: W.all)

(* A pass that mutates the function but declares a [preserves] set that
   keeps the CFG alive hands the verifier a stale cache; under
   --verify-level full (which threads the shared manager into every
   checkpoint) Rtlcheck must report the incoherence as an error rather
   than silently checking yesterday's facts. *)
let test_wrong_preserves_caught () =
  let module Analysis = Mac_dataflow.Analysis in
  let f = Func.create ~name:"t" ~params:[ reg 0 ] in
  Func.append f (Rtl.Move (reg 1, Rtl.Imm 7L));
  Func.append f (Rtl.Binop (Rtl.Add, reg 2, Rtl.Reg (reg 0), Rtl.Reg (reg 1)));
  Func.append f (Rtl.Ret (Some (Rtl.Reg (reg 2))));
  let am = Analysis.create f in
  Alcotest.(check int) "clean with a coherent cache" 0
    (List.length (Rtlcheck.check_func ~analysis:am ~pass:"test" f));
  (* "optimize" the add into a constant, declaring everything preserved *)
  Func.set_body f
    (List.map
       (fun (i : Rtl.inst) ->
         match i.kind with
         | Rtl.Binop (Rtl.Add, d, _, _) ->
           { i with Rtl.kind = Rtl.Move (d, Rtl.Imm 42L) }
         | _ -> i)
       f.Func.body);
  let ds = Rtlcheck.check_func ~analysis:am ~pass:"bad-pass" f in
  Alcotest.(check bool) "incoherent cache is an error" true
    (Diagnostic.has_errors ds);
  check_flags "names the cause" ds "analysis cache incoherent"

(* --- certified elision ------------------------------------------------ *)

module Disambig = Mac_core.Disambig
module Congruence = Mac_dataflow.Congruence

let image_add_facts =
  let b = Option.get (W.find "image_add") in
  b.W.facts W.default_layout ~size:100

let coalesced_with_facts src machine ~facts =
  let f = List.hd (Mac_minic.Lower.compile src) in
  classic_opts f;
  let reports = Coalesce.run ~facts f ~machine forced in
  let r =
    match
      List.find_opt (fun r -> r.Coalesce.status = Coalesce.Coalesced) reports
    with
    | Some r -> r
    | None -> Alcotest.fail "expected the loop to be coalesced"
  in
  (f, reports, r)

let test_audit_accepts_certified_elision () =
  let facts = image_add_facts in
  let f, reports, r =
    coalesced_with_facts image_add_src Machine.alpha ~facts
  in
  Alcotest.(check bool) "guards were elided" true
    (r.Coalesce.guards_elided > 0);
  Alcotest.(check int) "every guard discharged" 0 r.Coalesce.guards_emitted;
  let ds = Audit.run ~facts f ~machine:Machine.alpha ~reports in
  Alcotest.(check int)
    (Printf.sprintf "audit accepts every certificate (got: %s)"
       (Fmt.str "%a" (Fmt.list ~sep:(Fmt.any "; ") Diagnostic.pp) ds))
    0 (List.length ds)

let with_tampered_elisions (r : Coalesce.loop_report) tamper reports =
  let elisions = List.map tamper r.Coalesce.elisions in
  List.map
    (fun (r' : Coalesce.loop_report) ->
      if String.equal r'.Coalesce.header r.Coalesce.header then
        { r' with Coalesce.elisions }
      else r')
    reports

(* The seeded bug: a certificate claiming a misaligned window must not
   survive the audit's replay of the residue proof. *)
let test_audit_rejects_tampered_align_window () =
  let facts = image_add_facts in
  let f, reports, r =
    coalesced_with_facts image_add_src Machine.alpha ~facts
  in
  let reports =
    with_tampered_elisions r
      (fun (e : Disambig.elision) ->
        match e.Disambig.cert with
        | Disambig.Align c ->
          { e with
            Disambig.cert =
              Disambig.Align
                { c with
                  Disambig.ac_window = Int64.add c.Disambig.ac_window 1L } }
        | _ -> e)
      reports
  in
  check_flags "bogus window offset"
    (Audit.run ~facts f ~machine:Machine.alpha ~reports)
    "rejected"

(* A claim stronger than what the audit's own congruence solve derives
   (here: "every base register is constant 0") fails the implication
   check even though the residue proof over the claims would go through. *)
let test_audit_rejects_unsupported_claim () =
  let facts = image_add_facts in
  let f, reports, r =
    coalesced_with_facts image_add_src Machine.alpha ~facts
  in
  let reports =
    with_tampered_elisions r
      (fun (e : Disambig.elision) ->
        match e.Disambig.cert with
        | Disambig.Align c ->
          { e with
            Disambig.cert =
              Disambig.Align
                { c with
                  Disambig.ac_claims =
                    List.map
                      (fun (reg, _) -> (reg, Congruence.const 0L))
                      c.Disambig.ac_claims } }
        | _ -> e)
      reports
  in
  check_flags "unsupported claim"
    (Audit.run ~facts f ~machine:Machine.alpha ~reports)
    "rejected"

(* An alias certificate whose provenance does not match the re-derived
   one is rejected field-for-field. *)
let test_audit_rejects_tampered_alias_cert () =
  let facts = image_add_facts in
  let f, reports, r =
    coalesced_with_facts image_add_src Machine.alpha ~facts
  in
  let reports =
    with_tampered_elisions r
      (fun (e : Disambig.elision) ->
        match e.Disambig.cert with
        | Disambig.Alias c ->
          { e with
            Disambig.cert =
              Disambig.Alias
                { c with
                  Disambig.ca =
                    { c.Disambig.ca with
                      Disambig.s_alloc = c.Disambig.ca.Disambig.s_alloc + 7 } } }
        | _ -> e)
      reports
  in
  check_flags "bogus provenance"
    (Audit.run ~facts f ~machine:Machine.alpha ~reports)
    "rejected"

(* Without the facts the certificates were proved from, re-verification
   must fail rather than take the coalescer's word. *)
let test_audit_rejects_certs_without_facts () =
  let facts = image_add_facts in
  let f, reports, r =
    coalesced_with_facts image_add_src Machine.alpha ~facts
  in
  Alcotest.(check bool) "guards were elided" true
    (r.Coalesce.guards_elided > 0);
  check_flags "no facts, no certificates"
    (Audit.run f ~machine:Machine.alpha ~reports)
    "rejected"

(* --- translation validation ------------------------------------------ *)

module Tvalid = Mac_verify.Tvalid
module Interp = Mac_sim.Interp
module Memory = Mac_sim.Memory
module Ps = Mac_opt.Pipeline_sched

(* Every paper benchmark × machine × optimizing level must compile clean
   at Vfull: the validator proves each call's classic rounds as one
   composite, the other scalar passes one by one, and carves region
   cut-points around every coalesced/pipelined loop without a single
   rejection (a rejection raises [Verification_failed] inside [W.run])
   and the output still verifies. No composite needs a pass-by-pass replay, no classic
   pass is validated on its own, and the regions carved and fallbacks
   recorded over the grid are those of per-pass validation. The grid's
   validator totals (runs, block pairs checked and skipped, regions,
   fallbacks) are pinned exactly: a change that moves one moved what the
   validator proves or how it proves it. *)
let classic_passes =
  [ "simplify"; "copyprop"; "cse"; "combine"; "cleanflow"; "dce" ]

let test_tvalid_grid_clean () =
  let runs = ref 0 and checked = ref 0 and skipped = ref 0 in
  let regions = ref 0 and fallbacks = ref 0 in
  List.iter
    (fun machine ->
      List.iter
        (fun level ->
          List.iter
            (fun (b : W.t) ->
              let name =
                Printf.sprintf "%s/%s/%s" b.W.name machine.Machine.name
                  (Pipeline.level_to_string level)
              in
              let o =
                W.run ~size:16 ~coalesce:forced ~assume_layout:true
                  ~verify:Pipeline.Vfull ~machine ~level b
              in
              Alcotest.(check (option string)) (name ^ ": output") None
                o.W.error;
              let stats = o.W.tvalid_stats in
              (match List.assoc_opt "classic-opts" stats with
              | Some a ->
                Alcotest.(check int) (name ^ ": composite replays") 0
                  a.Tvalid.replays
              | None -> Alcotest.failf "%s: no classic-opts row" name);
              List.iter
                (fun p ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: no %s row" name p)
                    false (List.mem_assoc p stats))
                classic_passes;
              List.iter
                (fun (_, (a : Tvalid.agg)) ->
                  runs := !runs + a.Tvalid.runs;
                  checked := !checked + a.Tvalid.blocks;
                  skipped := !skipped + a.Tvalid.skipped;
                  regions := !regions + a.Tvalid.regions;
                  fallbacks := !fallbacks + a.Tvalid.fallbacks)
                stats)
            W.all)
        [ Pipeline.O2; Pipeline.O3; Pipeline.O4 ])
    [ Machine.alpha; Machine.mc88100; Machine.mc68030 ];
  Alcotest.(check int) "validator runs over the grid" 231 !runs;
  Alcotest.(check int) "block pairs checked over the grid" 216 !checked;
  Alcotest.(check int) "block pairs skipped over the grid" 1248 !skipped;
  Alcotest.(check int) "regions over the grid" 63 !regions;
  Alcotest.(check int) "fallbacks over the grid" 0 !fallbacks

(* One merge for per-pass validator counters: every field summed, the
   first-seen fallback reason kept, and neither operand mutated. *)
let test_tvalid_agg_add () =
  let agg runs reason =
    { Tvalid.runs; blocks = 2 * runs; skipped = 3 * runs; regions = runs;
      fallbacks = (if reason = None then 0 else 1); fallback_reason = reason;
      replays = runs; seconds = float_of_int runs }
  in
  let a = agg 1 None and b = agg 2 (Some "first") and c = agg 4 (Some "last") in
  let sum = Tvalid.agg_add (Tvalid.agg_add a b) c in
  Alcotest.(check (list int)) "counters summed" [ 7; 14; 21; 7; 2; 7 ]
    [ sum.runs; sum.blocks; sum.skipped; sum.regions; sum.fallbacks;
      sum.replays ];
  Alcotest.(check (float 0.)) "seconds summed" 7. sum.seconds;
  Alcotest.(check (option string)) "first reason kept" (Some "first")
    sum.fallback_reason;
  Alcotest.(check int) "operand untouched" 1 a.runs

(* The O4-full configuration (strength reduction, list scheduling,
   software pipelining and 32-register allocation) compiles clean at
   Vfull for every program on every paper machine, and the allocated
   code computes the right answer. Machines without a 64-bit store spill
   each register as two W32 halves: a single W64 spill made
   convolution's 88100 compile fail Rtlcheck. *)
let test_o4_full_grid () =
  List.iter
    (fun machine ->
      List.iter
        (fun (b : W.t) ->
          let o =
            W.run ~size:16 ~strength_reduce:true ~schedule:true
              ~pipeline_sched:true ~regalloc:32 ~verify:Pipeline.Vfull
              ~machine ~level:Pipeline.O4 b
          in
          Alcotest.(check (option string))
            (Printf.sprintf "%s/%s: output" b.W.name machine.Machine.name)
            None o.W.error)
        (W.dotproduct :: W.all))
    [ Machine.alpha; Machine.mc88100; Machine.mc68030 ]

(* A miscompiling classic pass is still blamed by name: the store-dropping
   mutant injected after [cse] makes the composite reject, and the
   pass-by-pass replay names [cse] and the function, not the composite. *)
let test_tvalid_composite_blames_pass () =
  Pipeline.test_intercept :=
    Some
      (fun pass f ->
        if String.equal pass "cse" then
          Func.set_body f
            (List.filter
               (fun (i : Rtl.inst) ->
                 match i.Rtl.kind with Rtl.Store _ -> false | _ -> true)
               f.Func.body));
  Fun.protect
    ~finally:(fun () -> Pipeline.test_intercept := None)
    (fun () ->
      let cfg =
        Pipeline.config ~level:Pipeline.O2 ~verify:Pipeline.Vfull
          Machine.alpha
      in
      match Pipeline.compile_source cfg image_add_src with
      | _ -> Alcotest.fail "store-dropping mutant accepted"
      | exception Pipeline.Verification_failed d ->
        Alcotest.(check string) "blamed pass" "cse" d.Diagnostic.pass;
        Alcotest.(check (option string)) "blamed function"
          (Some "image_add") d.Diagnostic.func)

(* Spilling under register pressure (params live across the loop, frame
   pointer introduced) must flow through the validator: regalloc renames
   wholesale, so it is recorded as a fallback with its reason, never
   silently skipped. *)
let test_tvalid_spilling_fallback () =
  let o =
    W.run ~size:16 ~regalloc:8 ~verify:Pipeline.Vfull
      ~machine:Machine.alpha ~level:Pipeline.O4 W.dotproduct
  in
  Alcotest.(check (option string)) "output" None o.W.error;
  (match List.assoc_opt "regalloc" o.W.tvalid_stats with
  | Some a ->
    Alcotest.(check bool)
      "regalloc recorded as fallback" true (a.Tvalid.fallbacks > 0);
    Alcotest.(check (option string))
      "fallback reason" (Some "renaming pass: Rtlcheck only")
      a.Tvalid.fallback_reason
  | None -> Alcotest.fail "no regalloc entry in tvalid stats");
  let cfg =
    Pipeline.config ~level:Pipeline.O4 ~regalloc:8 ~verify:Pipeline.Vfull
      Machine.alpha
  in
  let c = Pipeline.compile_source cfg W.dotproduct_src in
  let f = List.hd c.Pipeline.funcs in
  Alcotest.(check bool)
    "pressure actually forced a frame pointer" true (f.Func.fp_reg <> None)

(* Strength reduction rewrites induction variables wholesale: like
   regalloc, every run is a fallback that checks no block, and its
   reason names the one check the pass gets. *)
let test_tvalid_strength_reduce_fallback () =
  let o =
    W.run ~size:16 ~strength_reduce:true ~verify:Pipeline.Vfull
      ~machine:Machine.alpha ~level:Pipeline.O4 W.dotproduct
  in
  Alcotest.(check (option string)) "output" None o.W.error;
  match List.assoc_opt "strength-reduce" o.W.tvalid_stats with
  | Some a ->
    Alcotest.(check bool) "strength-reduce validated" true (a.Tvalid.runs > 0);
    Alcotest.(check int) "every run a fallback" a.Tvalid.runs
      a.Tvalid.fallbacks;
    Alcotest.(check int) "no block checked" 0 a.Tvalid.blocks;
    Alcotest.(check (option string))
      "fallback reason" (Some "renaming pass: Rtlcheck only")
      a.Tvalid.fallback_reason
  | None -> Alcotest.fail "no strength-reduce entry in tvalid stats"

(* Translation validation is billed to its own ["tvalid"] bucket of
   [pass_seconds], Rtlcheck and the audits to ["verify"]: at [Vir] no
   validator runs, so only ["verify"] appears. *)
let test_tvalid_pass_seconds_bucket () =
  let buckets verify =
    let o =
      W.run ~size:16 ~verify ~machine:Machine.alpha ~level:Pipeline.O4
        W.dotproduct
    in
    Alcotest.(check (option string)) "output" None o.W.error;
    ( List.mem_assoc "tvalid" o.W.pass_seconds,
      List.mem_assoc "verify" o.W.pass_seconds,
      o.W.tvalid_stats <> [] )
  in
  let tv, vr, stats = buckets Pipeline.Vfull in
  Alcotest.(check bool) "Vfull: tvalid bucket" true tv;
  Alcotest.(check bool) "Vfull: verify bucket" true vr;
  Alcotest.(check bool) "Vfull: validator ran" true stats;
  let tv, vr, stats = buckets Pipeline.Vir in
  Alcotest.(check bool) "Vir: no tvalid bucket" false tv;
  Alcotest.(check bool) "Vir: verify bucket" true vr;
  Alcotest.(check bool) "Vir: validator did not run" false stats

let deep32 =
  { Test32.machine with name = "deep32"; load_latency = 6; mul_latency = 12 }

(* A genuinely software-pipelined loop (prologue / steady state /
   epilogue) is matched with region cut-points: the pipelined region is
   justified by its certificate and matching resumes at the loop's
   continuation. *)
let test_tvalid_pipeline_sched_regions () =
  let o =
    W.run ~size:64 ~pipeline_sched:true ~verify:Pipeline.Vfull
      ~machine:deep32 ~level:Pipeline.O1 W.dotproduct
  in
  Alcotest.(check (option string)) "output" None o.W.error;
  let pipelined =
    List.exists
      (fun (_, rs) ->
        List.exists
          (fun ((rep : Ps.report), _) -> rep.Ps.status = Ps.Pipelined)
          rs)
      o.W.sched_reports
  in
  Alcotest.(check bool) "dotproduct software-pipelined on deep32" true
    pipelined;
  match List.assoc_opt "pipeline-sched" o.W.tvalid_stats with
  | Some a ->
    Alcotest.(check bool)
      "pipelined loop carved as a region cut-point" true
      (a.Tvalid.runs > 0 && a.Tvalid.regions > 0)
  | None -> Alcotest.fail "no pipeline-sched entry in tvalid stats"

(* --- the mutation adversary ------------------------------------------ *)

(* (pass, machine, old, new) snapshots captured from real Vfull compiles
   through [Pipeline.test_observe]: the step of every classic pass that
   changed something, each call's [classic-opts] composite, and the other
   passes. Only exactly-matched passes participate: region passes need
   their loop reports to carve cut-points, and fallback passes are not
   term-checked at all. *)
let captured_snapshots =
  lazy
    (let snaps = ref [] in
     let compile machine level (b : W.t) =
       Pipeline.test_observe :=
         Some
           (fun ~pass ~proof ~fname:_ ~old_f ~new_f ->
             match (proof : Pipeline.proof) with
             | Exact | Composite ->
               snaps :=
                 (pass, machine, Tvalid.snapshot old_f,
                  Tvalid.snapshot new_f)
                 :: !snaps
             | Regions _ | Renamer -> ());
       let o =
         W.run ~size:16 ~coalesce:forced ~assume_layout:true
           ~verify:Pipeline.Vfull ~machine ~level b
       in
       Alcotest.(check (option string)) (b.W.name ^ ": output") None
         o.W.error
     in
     Fun.protect
       ~finally:(fun () -> Pipeline.test_observe := None)
       (fun () ->
         compile Machine.alpha Pipeline.O4 W.dotproduct;
         compile Machine.alpha Pipeline.O4 (Option.get (W.find "image_add"));
         compile Machine.mc68030 Pipeline.O3 W.dotproduct;
         compile Machine.mc68030 Pipeline.O3
           (Option.get (W.find "convolution")));
     Array.of_list !snaps)

let flip_cmp = function
  | Rtl.Eq -> Rtl.Ne
  | Rtl.Ne -> Rtl.Eq
  | Rtl.Lt -> Rtl.Ge
  | Rtl.Ge -> Rtl.Lt
  | Rtl.Le -> Rtl.Gt
  | Rtl.Gt -> Rtl.Le
  | Rtl.Ltu -> Rtl.Geu
  | Rtl.Geu -> Rtl.Ltu
  | Rtl.Leu -> Rtl.Gtu
  | Rtl.Gtu -> Rtl.Leu

let commutative = function
  | Rtl.Add | Rtl.Mul | Rtl.And | Rtl.Or | Rtl.Xor | Rtl.Cmp Rtl.Eq
  | Rtl.Cmp Rtl.Ne ->
    true
  | _ -> false

let widths_other w =
  List.filter
    (fun w' -> not (Width.equal w w'))
    [ Width.W8; Width.W16; Width.W32; Width.W64 ]

let flip_sign = function Rtl.Signed -> Rtl.Unsigned | Rtl.Unsigned -> Rtl.Signed

(* every miscompile shape this adversary knows how to inject *)
let mutations_of (k : Rtl.kind) : Rtl.kind list =
  match k with
  | Rtl.Binop (op, d, a, b) ->
    (if commutative op || a = b then [] else [ Rtl.Binop (op, d, b, a) ])
    @ (match op with
      | Rtl.Cmp c -> [ Rtl.Binop (Rtl.Cmp (flip_cmp c), d, a, b) ]
      | _ -> [])
    @ (match b with
      | Rtl.Imm i -> [ Rtl.Binop (op, d, a, Rtl.Imm (Int64.add i 1L)) ]
      | _ -> [])
  | Rtl.Move (d, Rtl.Imm i) -> [ Rtl.Move (d, Rtl.Imm (Int64.add i 1L)) ]
  | Rtl.Load { dst; src; sign } ->
    Rtl.Load
      { dst; src = { src with Rtl.disp = Int64.add src.Rtl.disp 1L }; sign }
    :: Rtl.Load { dst; src; sign = flip_sign sign }
    :: List.map
         (fun w -> Rtl.Load { dst; src = { src with Rtl.width = w }; sign })
         (widths_other src.Rtl.width)
  | Rtl.Store { src; dst } ->
    Rtl.Nop
    :: Rtl.Store
         { src; dst = { dst with Rtl.disp = Int64.add dst.Rtl.disp 1L } }
    :: List.map
         (fun w -> Rtl.Store { src; dst = { dst with Rtl.width = w } })
         (widths_other dst.Rtl.width)
  | _ -> []

let mutate_func st (f : Func.t) =
  let body = Array.of_list f.Func.body in
  let eligible =
    List.filteri (fun _ (_, ms) -> ms <> [])
      (List.mapi
         (fun i inst -> (i, mutations_of inst.Rtl.kind))
         (Array.to_list body))
  in
  if eligible = [] then None
  else begin
    let i, ms =
      List.nth eligible (Random.State.int st (List.length eligible))
    in
    let k = List.nth ms (Random.State.int st (List.length ms)) in
    let body = Array.copy body in
    let old = body.(i) in
    body.(i) <- { old with Rtl.kind = k };
    let g = Tvalid.snapshot f in
    Func.set_body g (Array.to_list body);
    Some g
  end

(* The permissive concrete oracle: run the function standalone on a
   deterministically-filled memory with the last parameter (the trip
   count, by benchmark convention) small and every other parameter a
   well-separated buffer base. [None] means the run trapped. *)
let concrete machine (f : Func.t) =
  let mem = Memory.create ~size:8192 in
  let seed = ref 1234567 in
  for addr = 8 to 8191 do
    seed := (!seed * 1103515245) + 12345;
    Memory.store mem ~addr:(Int64.of_int addr) ~width:Width.W8
      (Int64.of_int (!seed lsr 16 land 0xFF))
  done;
  let nparams = List.length f.Func.params in
  let args =
    List.init nparams (fun i ->
        if i = nparams - 1 then 8L else Int64.of_int (1024 * (i + 1)))
  in
  match
    Interp.run ~machine ~memory:mem [ f ] ~entry:f.Func.name ~args
      ~fuel:200_000 ()
  with
  | r -> Some (r.Interp.value, Memory.load_bytes mem ~addr:8L ~len:8183)
  | exception Interp.Trap _ -> None

(* ≥ 500 counted mutations, zero accepted. A trial counts only when the
   concrete oracle distinguishes the pass output from its mutant (same
   inputs, different result — or a freshly introduced trap): mutations
   that happen to be semantics-preserving on the oracle's input prove
   nothing about the validator either way. *)
let test_tvalid_mutation_adversary () =
  let snaps = Lazy.force captured_snapshots in
  let captured p = Array.exists (fun (pass, _, _, _) -> p pass) snaps in
  Alcotest.(check bool) "captured per-pass classic steps" true
    (captured (fun pass -> List.mem pass classic_passes));
  Alcotest.(check bool) "captured classic-opts composites" true
    (captured (String.equal "classic-opts"));
  let st = Random.State.make [| 0x5eed |] in
  let target = 500 and max_attempts = 50_000 in
  let counted = ref 0 and attempts = ref 0 and composites = ref 0 in
  let accepted = ref [] in
  while !counted < target && !attempts < max_attempts do
    incr attempts;
    let pass, machine, old_f, new_f =
      snaps.(Random.State.int st (Array.length snaps))
    in
    match mutate_func st new_f with
    | None -> ()
    | Some mutant ->
      let distinguished =
        match (concrete machine new_f, concrete machine mutant) with
        | Some a, Some b -> a <> b
        | Some _, None -> true
        | None, _ -> false
      in
      if distinguished then begin
        incr counted;
        if String.equal pass "classic-opts" then incr composites;
        match
          Tvalid.validate ~machine ~facts:Disambig.empty ~pass ~old_f
            ~new_f:mutant ()
        with
        | Error _ -> ()
        | Ok _ -> accepted := (pass, old_f.Func.name) :: !accepted
      end
  done;
  Alcotest.(check bool)
    (Printf.sprintf
       "enough distinguishable mutants (%d counted in %d attempts)"
       !counted !attempts)
    true
    (!counted >= target);
  Alcotest.(check bool)
    (Printf.sprintf "composite mutants counted (%d)" !composites)
    true (!composites > 0);
  Alcotest.(check int)
    (Printf.sprintf "accepted mutants (%s)"
       (String.concat "; "
          (List.map (fun (p, f) -> p ^ "/" ^ f) !accepted)))
    0 (List.length !accepted)

(* A verdict and its counters as one comparable line. *)
let summarize_verdict = function
  | Ok (r : Tvalid.result) ->
    Printf.sprintf "ok checked=%d skipped=%d regions=%d warnings=%d"
      r.Tvalid.blocks_checked r.Tvalid.blocks_skipped r.Tvalid.regions_skipped
      (List.length r.Tvalid.warnings)
  | Error _ -> "rejected"

(* Validation keeps nothing between calls: a pair's verdict and
   counters are the same whether it is validated first or after other
   validations, honest pairs and mutants alike, on any machine. *)
let prop_tvalid_verdict_stateless =
  QCheck.Test.make ~count:100
    ~name:"verdict independent of earlier validations"
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let snaps = Lazy.force captured_snapshots in
      let st = Random.State.make [| seed |] in
      let pick () =
        let pass, machine, old_f, new_f =
          snaps.(Random.State.int st (Array.length snaps))
        in
        let candidate =
          if Random.State.bool st then new_f
          else match mutate_func st new_f with Some m -> m | None -> new_f
        in
        fun () ->
          summarize_verdict
            (Tvalid.validate ~machine ~facts:Disambig.empty ~pass ~old_f
               ~new_f:candidate ())
      in
      let target = pick () in
      let first = target () in
      for _ = 1 to 3 do
        ignore (pick () ())
      done;
      String.equal first (target ()))

(* A block the pass left alone (the same instruction records on both
   sides) is skipped on its exit alone, except a branch: its condition
   here folds to a constant, the new side deleted the dead fall-through
   successor, and only the live edge may be paired. The verdict and
   counters must equal those of the generic path, which sees the same
   blocks as fresh records; a corrupted live successor must still be
   rejected. *)
let test_tvalid_shared_branch_block () =
  let old_f = Func.create ~name:"fold" ~params:[ reg 0 ] in
  List.iter (Func.append old_f)
    [
      Rtl.Move (reg 2, Rtl.Imm 5L);
      Rtl.Branch
        { cmp = Rtl.Gt; l = Rtl.Reg (reg 2); r = Rtl.Imm 0L; target = "Llive" };
      Rtl.Move (reg 3, Rtl.Imm 7L);
      Rtl.Ret (Some (Rtl.Reg (reg 3)));
      Rtl.Label "Llive";
      Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 0), Rtl.Imm 1L);
      Rtl.Ret (Some (Rtl.Reg (reg 3)));
    ];
  let body = Array.of_list old_f.Func.body in
  let with_body insts =
    let f = Func.create ~name:"fold" ~params:[ reg 0 ] in
    Func.set_body f insts;
    f
  in
  (* the dead block (indices 2-3) is gone; everything else is shared *)
  let live = [ body.(0); body.(1); body.(4); body.(5); body.(6) ] in
  let shared = with_body live in
  let fresh =
    with_body (List.map (fun (i : Rtl.inst) -> { i with uid = i.uid }) live)
  in
  Alcotest.(check bool) "shared records are the old ones" true
    (List.nth shared.Func.body 1 == body.(1));
  Alcotest.(check bool) "fresh records are copies" false
    (List.nth fresh.Func.body 1 == body.(1));
  let run new_f =
    summarize_verdict
      (Tvalid.validate ~machine:Machine.alpha ~facts:Disambig.empty ~pass:"dce"
         ~old_f ~new_f ())
  in
  Alcotest.(check string) "shared branch block: live edge only"
    "ok checked=0 skipped=2 regions=0 warnings=0" (run shared);
  Alcotest.(check string) "generic path agrees" (run fresh) (run shared);
  let corrupt =
    with_body
      [ body.(0); body.(1); body.(4);
        { (body.(5)) with
          kind = Rtl.Binop (Rtl.Add, reg 3, Rtl.Reg (reg 0), Rtl.Imm 2L) };
        body.(6) ]
  in
  Alcotest.(check string) "corrupted live successor rejected" "rejected"
    (run corrupt)

let () =
  Alcotest.run "verify"
    [
      ( "rtlcheck",
        [
          Alcotest.test_case "clean function" `Quick test_clean_function;
          Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
          Alcotest.test_case "undefined target" `Quick test_undefined_target;
          Alcotest.test_case "fall-through end" `Quick test_fallthrough_end;
          Alcotest.test_case "undefined register" `Quick
            test_undefined_register;
          Alcotest.test_case "self-defined register" `Quick
            test_self_defined_register;
          Alcotest.test_case "maybe undefined" `Quick test_maybe_undefined;
          Alcotest.test_case "extract escapes register" `Quick
            test_extract_escapes_register;
          Alcotest.test_case "illegal width" `Quick test_illegal_width;
          Alcotest.test_case "unreachable block" `Quick
            test_unreachable_block;
          Alcotest.test_case "failing pass is named" `Quick
            test_pipeline_names_failing_pass;
          Alcotest.test_case "new machine alone still checks widths" `Quick
            test_checkpoint_new_machine_checks_widths;
          Alcotest.test_case "one structural checker at every level" `Quick
            test_single_checker_every_level;
          Alcotest.test_case "wrong preserves is caught" `Quick
            test_wrong_preserves_caught;
        ] );
      ( "audit",
        [
          Alcotest.test_case "accepts real coalescer output" `Quick
            test_audit_accepts_real_output;
          Alcotest.test_case "dropped alignment guard" `Quick
            test_audit_catches_dropped_alignment_guard;
          Alcotest.test_case "escaping extract" `Quick
            test_audit_catches_escaping_extract;
          Alcotest.test_case "missing insert" `Quick
            test_audit_catches_missing_insert;
          Alcotest.test_case "weakened alias guard" `Quick
            test_audit_catches_weakened_alias_guard;
          Alcotest.test_case "clobbered wide value" `Quick
            test_audit_catches_clobbered_wide_value;
        ] );
      ( "certified elision",
        [
          Alcotest.test_case "accepts real certificates" `Quick
            test_audit_accepts_certified_elision;
          Alcotest.test_case "rejects tampered align window" `Quick
            test_audit_rejects_tampered_align_window;
          Alcotest.test_case "rejects unsupported claim" `Quick
            test_audit_rejects_unsupported_claim;
          Alcotest.test_case "rejects tampered alias cert" `Quick
            test_audit_rejects_tampered_alias_cert;
          Alcotest.test_case "rejects certificates without facts" `Quick
            test_audit_rejects_certs_without_facts;
        ] );
      ( "tvalid",
        [
          Alcotest.test_case "regalloc spill fallback" `Quick
            test_tvalid_spilling_fallback;
          Alcotest.test_case "pipeline-sched region cut-points" `Quick
            test_tvalid_pipeline_sched_regions;
          Alcotest.test_case "composite rejection blames the pass" `Quick
            test_tvalid_composite_blames_pass;
          Alcotest.test_case "agg_add sums and keeps the first reason" `Quick
            test_tvalid_agg_add;
          Alcotest.test_case "grid clean at Vfull" `Slow
            test_tvalid_grid_clean;
          Alcotest.test_case "O4-full grid compiles at Vfull" `Slow
            test_o4_full_grid;
          Alcotest.test_case "mutation adversary rejects all mutants" `Slow
            test_tvalid_mutation_adversary;
          Alcotest.test_case "strength-reduce fallback" `Quick
            test_tvalid_strength_reduce_fallback;
          Alcotest.test_case "validation billed to tvalid" `Quick
            test_tvalid_pass_seconds_bucket;
        ] );
      ( "tvalid skip",
        [
          Alcotest.test_case "shared branch block skipped on its live edge"
            `Quick test_tvalid_shared_branch_block;
          QCheck_alcotest.to_alcotest prop_tvalid_verdict_stateless;
        ] );
      ( "differential",
        [
          Alcotest.test_case "alpha" `Slow (test_differential Machine.alpha);
          Alcotest.test_case "mc88100" `Slow
            (test_differential Machine.mc88100);
          Alcotest.test_case "mc68030" `Slow
            (test_differential Machine.mc68030);
        ] );
    ]
