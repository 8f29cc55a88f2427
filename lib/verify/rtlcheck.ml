open Mac_rtl
module Cfg = Mac_cfg.Cfg
module Analysis = Mac_dataflow.Analysis
module Reaching = Mac_dataflow.Reaching
module Liveness = Mac_dataflow.Liveness
module Machine = Mac_machine.Machine

(* --- structure: labels, uids, targets, terminator, prefix uses ------ *)

let structural_checks ~pass (f : Func.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let labels = Hashtbl.create 16 in
  let uids = Hashtbl.create 64 in
  List.iter
    (fun (i : Rtl.inst) ->
      if Hashtbl.mem uids i.uid then
        add (Diagnostic.errorf ~pass ~uid:i.uid "duplicate uid %d" i.uid)
      else Hashtbl.add uids i.uid ();
      match i.kind with
      | Rtl.Label l ->
        if Hashtbl.mem labels l then
          add (Diagnostic.errorf ~pass ~uid:i.uid "duplicate label %s" l)
        else Hashtbl.add labels l ()
      | _ -> ())
    f.body;
  List.iter
    (fun (i : Rtl.inst) ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem labels l) then
            add
              (Diagnostic.errorf ~pass ~uid:i.uid
                 "undefined branch target %s in %s" l (Rtl.to_string i.kind)))
        (Rtl.branch_targets i.kind))
    f.body;
  (match List.rev f.body with
  | [] -> add (Diagnostic.error ~pass "empty body")
  | last :: _ when Rtl.is_terminator last.kind -> ()
  | last :: _ ->
    add
      (Diagnostic.errorf ~pass ~uid:last.uid
         "body can fall through its last instruction: %s"
         (Rtl.to_string last.kind)));
  (* Along the straight-line prefix every use needs an earlier
     definition: no other path can supply one before the first label or
     terminator. Parameters and the frame pointer (which the simulator
     initialises) count as defined. *)
  let defined = Hashtbl.create 16 in
  let define r = Hashtbl.replace defined (Reg.id r) () in
  List.iter define f.params;
  Option.iter define f.fp_reg;
  let rec prefix = function
    | [] -> ()
    | (i : Rtl.inst) :: rest -> (
      match i.kind with
      | Rtl.Label _ -> ()
      | k ->
        List.iter
          (fun r ->
            if not (Hashtbl.mem defined (Reg.id r)) then
              add
                (Diagnostic.errorf ~pass ~uid:i.uid
                   "use of undefined register %s in %s" (Reg.to_string r)
                   (Rtl.to_string k)))
          (Rtl.uses k);
        List.iter define (Rtl.defs k);
        if not (Rtl.is_terminator k) then prefix rest)
  in
  prefix f.body;
  List.rev_map (Diagnostic.with_func f.name) !diags

(* --- operand sanity: field positions, shift amounts, widths --------- *)

let operand_checks ?machine ~pass (f : Func.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let check_field_pos uid what pos width =
    match pos with
    | Rtl.Imm p ->
      if
        Int64.compare p 0L < 0
        || Int64.compare (Int64.add p (Int64.of_int (Width.bytes width))) 8L
           > 0
      then
        add
          (Diagnostic.errorf ~pass ~uid
             "%s byte position %Ld with width %a leaves the 64-bit register"
             what p Width.pp width)
    | Rtl.Reg _ -> ()
  in
  let check_mem uid (m : Rtl.mem) ~is_load =
    match machine with
    | None -> ()
    | Some mc ->
      let legal =
        if is_load then Machine.legal_load mc m.width ~aligned:m.aligned
        else Machine.legal_store mc m.width ~aligned:m.aligned
      in
      if not legal then
        add
          (Diagnostic.errorf ~pass ~uid
             "%s of width %a (%s) is not legal on %s"
             (if is_load then "load" else "store")
             Width.pp m.width
             (if m.aligned then "aligned" else "unaligned")
             mc.Machine.name)
  in
  List.iter
    (fun (i : Rtl.inst) ->
      match i.kind with
      | Rtl.Extract { pos; width; _ } ->
        check_field_pos i.uid "extract" pos width
      | Rtl.Insert { pos; width; _ } -> check_field_pos i.uid "insert" pos width
      | Rtl.Binop ((Rtl.Shl | Rtl.Lshr | Rtl.Ashr), _, _, Rtl.Imm s)
        when Int64.compare s 0L < 0 || Int64.compare s 63L > 0 ->
        add
          (Diagnostic.warningf ~pass ~uid:i.uid
             "shift amount %Ld is reduced modulo 64" s)
      | Rtl.Load { src; _ } -> check_mem i.uid src ~is_load:true
      | Rtl.Store { dst; _ } -> check_mem i.uid dst ~is_load:false
      | _ -> ())
    f.body;
  List.rev !diags

(* --- CFG + dataflow: reachability and definedness ------------------- *)

let flow_checks am ~pass (f : Func.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let cfg = Analysis.cfg am in
  let reachable = Cfg.reachable cfg in
  Array.iter
    (fun (b : Cfg.block) ->
      if not reachable.(b.index) then
        let name =
          match b.label with
          | Some l -> Printf.sprintf "block %s" l
          | None -> Printf.sprintf "block #%d" b.index
        in
        add (Diagnostic.warningf ~pass "%s is unreachable" name))
    cfg.blocks;
  (* Registers with at least one definition anywhere (parameters and the
     frame pointer count: the caller and the simulator supply them),
     gathered only once some other register is live into the entry. *)
  let ever_defined =
    lazy
      (let tbl = Hashtbl.create 64 in
       let mark r = Hashtbl.replace tbl (Reg.id r) () in
       List.iter mark f.params;
       Option.iter mark f.fp_reg;
       List.iter
         (fun (i : Rtl.inst) -> List.iter mark (Rtl.defs i.kind))
         f.body;
       tbl)
  in
  let entry_ok r =
    List.exists (Reg.equal r) f.params
    || (match f.fp_reg with Some fp -> Reg.equal r fp | None -> false)
  in
  (* A use that no definition reaches is undefined on every path —
     unless the register is supplied from outside (a parameter or the
     spill frame pointer, which no instruction ever defines). *)
  let reaching = Analysis.reaching am in
  Array.iter
    (fun (b : Cfg.block) ->
      if reachable.(b.index) then
        Reaching.iter_undefined_uses reaching ~block:b.index (fun i r ->
            if not (entry_ok r) then
              add
                (Diagnostic.errorf ~pass ~uid:i.uid
                   "use of undefined register %s in %s" (Reg.to_string r)
                   (Rtl.to_string i.kind))))
    cfg.blocks;
  (* A register live into the entry that is not supplied from outside is
     read before being written on some path. Registers that are never
     defined at all were already reported above. *)
  let live = Analysis.liveness am in
  Reg.Set.iter
    (fun r ->
      if (not (entry_ok r)) && Hashtbl.mem (Lazy.force ever_defined) (Reg.id r)
      then
        add
          (Diagnostic.warningf ~pass
             "register %s may be read before it is written on some path"
             (Reg.to_string r)))
    (Liveness.live_in live (Cfg.entry cfg));
  List.rev !diags

let check_func ?machine ?analysis ~pass (f : Func.t) =
  (* every diagnostic leaves here carrying the function's name *)
  let tag = List.map (Diagnostic.with_func f.name) in
  let structural = structural_checks ~pass f in
  let operands = operand_checks ?machine ~pass f in
  (* The cached-analysis coherence check runs before any cached fact is
     consumed: a stale CFG view means some pass declared a [preserves]
     set it did not honour, and every fact derived from it is suspect. *)
  let coherence =
    match analysis with
    | None -> []
    | Some am -> (
      match Analysis.coherent am with
      | Ok () -> []
      | Error msg ->
        [ Diagnostic.errorf ~pass
            "analysis cache incoherent: %s (a pass declared a preserves \
             set it did not honour)"
            msg ])
  in
  if Diagnostic.has_errors structural || coherence <> [] then
    tag (structural @ operands @ coherence)
  else
    let am =
      match analysis with Some am -> am | None -> Analysis.create f
    in
    tag (structural @ operands @ flow_checks am ~pass f)
