(* The export rule: every value a [lib/] module exports has a caller
   outside its own file, in [lib/], [bin/], [bench/] or [examples/].
   Tests do not count: a value only a test calls belongs in the test.

   Usage: [check_exports.exe [--seams FILE] ROOT]. The exports are the
   [val]s of each [ROOT/lib/*/*.mli], or the top-level values of a
   [.ml] without one. The uses are the value paths of every [.ml] under
   the four trees. A path resolves through a library's own modules
   ([M.v] inside the library), the wrapped name ([Mac_x.M.v]), module
   aliases ([module W = Mac_x.M]) and opens ([open], [let open],
   [M.( ... )]; [include] counts as a use of every export). Aliases and
   opens hold for the whole file, and after an open a bare name counts
   as a use, so the check may miss a dead export but never fails a live
   one. A module cannot name itself by path, so the uses in its own file
   are bare names and never count. The seams file lists the exports
   allowed without a caller, one [file:val reason] a line. Prints each
   export without a caller as [file:val] and exits 1 if there is one,
   or if a seam lacks a reason, names no export or has a caller. *)

(* Where a module path can point: a whole library or one of its modules. *)
type target = Lib of string | Mod of string * string

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lexbuf_of path =
  let lb = Lexing.from_string (read_file path) in
  Location.init lb path;
  lb

let is_dir path = Sys.file_exists path && Sys.is_directory path

let sorted_entries dir =
  let names = Sys.readdir dir in
  Array.sort compare names;
  Array.to_list names

(* Every [.ml] below [dir], skipping hidden directories. *)
let rec ml_files dir =
  if not (is_dir dir) then []
  else
    List.concat_map
      (fun n ->
        let p = Filename.concat dir n in
        if n.[0] = '.' then []
        else if is_dir p then ml_files p
        else if Filename.check_suffix n ".ml" then [ p ]
        else [])
      (sorted_entries dir)

(* The [(name ...)] of a [(library ...)] stanza, capitalized as the
   wrapped module the library's users name. *)
let library_name dune_file =
  let s = read_file dune_file in
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some (i + n)
      else go (i + 1)
    in
    go from
  in
  match find "(library" 0 with
  | None -> None
  | Some i -> (
      match find "(name" i with
      | None -> None
      | Some j ->
          let is_space c = c = ' ' || c = '\n' || c = '\t' in
          let j = ref j in
          while is_space s.[!j] do incr j done;
          let k = ref !j in
          while not (is_space s.[!k] || s.[!k] = ')') do incr k done;
          Some (String.capitalize_ascii (String.sub s !j (!k - !j))))

let module_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let value_names_of_pattern p =
  let rec go (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var v -> [ v.txt ]
    | Ppat_constraint (p, _) -> go p
    | Ppat_alias (p, v) -> v.txt :: go p
    | Ppat_tuple ps -> List.concat_map go ps
    | _ -> []
  in
  go p

(* The values a module exports: its interface's [val]s, or its
   top-level bindings when it has no interface. *)
let exports_of ~mli ~ml =
  if Sys.file_exists mli then
    List.filter_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd -> Some vd.pval_name.txt
        | _ -> None)
      (Parse.interface (lexbuf_of mli))
  else
    List.concat_map
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.concat_map
              (fun (vb : Parsetree.value_binding) ->
                value_names_of_pattern vb.pvb_pat)
              vbs
        | _ -> [])
      (Parse.implementation (lexbuf_of ml))

let path_of lid = try Some (Longident.flatten lid) with _ -> None

let rec split_last = function
  | [] -> invalid_arg "split_last"
  | [ x ] -> ([], x)
  | x :: xs ->
      let init, last = split_last xs in
      (x :: init, last)

(* What one [.ml] names: its module aliases, opens, includes and value
   paths, collected over the whole file. *)
type file_names = {
  aliases : (string, string list) Hashtbl.t;
  opens : string list list ref;
  includes : string list list ref;
  idents : string list list ref;
}

let names_of_file path =
  let f =
    {
      aliases = Hashtbl.create 8;
      opens = ref [];
      includes = ref [];
      idents = ref [];
    }
  in
  let rec ident_of (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident lid -> path_of lid.txt
    | Pmod_constraint (me, _) -> ident_of me
    | _ -> None
  in
  let alias name me =
    match (name, ident_of me) with
    | Some n, Some p -> Hashtbl.add f.aliases n p
    | _ -> ()
  in
  let push r me = Option.iter (fun p -> r := p :: !r) (ident_of me) in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident lid ->
              Option.iter
                (fun p -> f.idents := p :: !(f.idents))
                (path_of lid.txt)
          | Pexp_letmodule (name, me, _) -> alias name.txt me
          | _ -> ());
          super.expr it e);
      module_binding =
        (fun it mb ->
          alias mb.pmb_name.txt mb.pmb_expr;
          super.module_binding it mb);
      open_declaration =
        (fun it od ->
          push f.opens od.popen_expr;
          super.open_declaration it od);
      include_declaration =
        (fun it id ->
          push f.includes id.pincl_mod;
          super.include_declaration it id);
    }
  in
  it.structure it (Parse.implementation (lexbuf_of path));
  f

(* The libraries under [root/lib]: each library's wrapped name, its
   directory and its modules, and every export as
   [((library, module, value), file)] in directory and file order. *)
let libraries root =
  let lib_root = Filename.concat root "lib" in
  let libs = Hashtbl.create 16 and dir_lib = Hashtbl.create 16 in
  let exports = ref [] in
  List.iter
    (fun d ->
      let dir = Filename.concat lib_root d in
      let dune = Filename.concat dir "dune" in
      match if Sys.file_exists dune then library_name dune else None with
      | None -> ()
      | Some name ->
          let mls =
            List.filter
              (fun n -> Filename.check_suffix n ".ml")
              (sorted_entries dir)
            |> List.map (Filename.concat dir)
          in
          Hashtbl.replace libs name (List.map module_of mls);
          Hashtbl.replace dir_lib dir name;
          List.iter
            (fun ml ->
              let mli = ml ^ "i" in
              let file = if Sys.file_exists mli then mli else ml in
              List.iter
                (fun v ->
                  let key = (name, module_of ml, v) in
                  if not (List.mem_assoc key !exports) then
                    exports := (key, file) :: !exports)
                (exports_of ~mli ~ml))
            mls)
    (if is_dir lib_root then sorted_entries lib_root else []);
  (libs, dir_lib, List.rev !exports)

(* Marks in [used] every export one [.ml] names. *)
let use_file ~libs ~dir_lib ~exports used path =
  let has_mod l m =
    match Hashtbl.find_opt libs l with
    | Some ms -> List.mem m ms
    | None -> false
  in
  let mod_of l m = if has_mod l m then [ Mod (l, m) ] else [] in
  let self_lib = Hashtbl.find_opt dir_lib (Filename.dirname path) in
  let f = names_of_file path in
  let opened = ref [] in
  (* What a module path can denote here: a library, an alias's target,
     a sibling module of this file's library, or a module of an opened
     library. The depth bound stops an alias that names itself. *)
  let rec head depth name =
    (if Hashtbl.mem libs name then [ Lib name ] else [])
    @ (if depth > 8 then []
       else
         List.concat_map (resolve (depth + 1))
           (Hashtbl.find_all f.aliases name))
    @ (match self_lib with Some l -> mod_of l name | None -> [])
    @ List.concat_map
        (function Lib l -> mod_of l name | Mod _ -> [])
        !opened
  and resolve depth = function
    | [] -> []
    | [ x ] -> head depth x
    | xs ->
        let init, last = split_last xs in
        List.concat_map
          (function Lib l -> mod_of l last | Mod _ -> [])
          (resolve depth init)
  in
  (* Opens may name each other and aliases: resolve to a fixpoint. *)
  let rec settle () =
    let next =
      List.sort_uniq compare
        (List.concat_map (resolve 0) (!(f.opens) @ !(f.includes)))
    in
    if next <> !opened then begin
      opened := next;
      settle ()
    end
  in
  settle ();
  let use = function
    | Mod (l, m) -> fun v -> Hashtbl.replace used (l, m, v) ()
    | Lib _ -> ignore
  in
  List.iter
    (fun p ->
      List.iter
        (fun t ->
          List.iter
            (fun ((l, m, v), _) -> if t = Mod (l, m) then use t v)
            exports)
        (resolve 0 p))
    !(f.includes);
  List.iter
    (fun p ->
      match split_last p with
      | [], v -> List.iter (fun t -> use t v) !opened
      | prefix, v -> List.iter (fun t -> use t v) (resolve 0 prefix))
    !(f.idents)

(* The seams file: each line's [file:val], and a problem for a line
   without a reason. *)
let read_seams problem path =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else
        let id, reason =
          match String.index_opt line ' ' with
          | Some i ->
              ( String.sub line 0 i,
                String.trim (String.sub line i (String.length line - i)) )
          | None -> (line, "")
        in
        if reason = "" then problem (id ^ ": seam without a reason");
        Some id)
    (String.split_on_char '\n' (read_file path))

let () =
  let seams_file = ref None and root = ref "." in
  Arg.parse
    [ ("--seams", Arg.String (fun s -> seams_file := Some s), "FILE seams") ]
    (fun r -> root := r)
    "check_exports [--seams FILE] ROOT";
  let root = !root in
  let rel p =
    let n = String.length root + 1 in
    if String.length p > n && String.sub p 0 n = root ^ "/" then
      String.sub p n (String.length p - n)
    else p
  in
  let libs, dir_lib, exports = libraries root in
  let used = Hashtbl.create 512 in
  List.iter
    (fun d ->
      List.iter
        (use_file ~libs ~dir_lib ~exports used)
        (ml_files (Filename.concat root d)))
    [ "lib"; "bin"; "bench"; "examples" ];
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let seams =
    match !seams_file with None -> [] | Some p -> read_seams problem p
  in
  let ids =
    List.map (fun (((_, _, v) as k), file) -> (k, rel file ^ ":" ^ v)) exports
  in
  List.iter
    (fun s ->
      match List.find_opt (fun (_, i) -> i = s) ids with
      | None -> problem (s ^ ": seam names no export")
      | Some (k, _) ->
          if Hashtbl.mem used k then
            problem (s ^ ": seam has a caller; drop it from the list"))
    seams;
  let dead =
    List.filter (fun (k, i) -> not (Hashtbl.mem used k || List.mem i seams)) ids
  in
  List.iter
    (fun (_, i) -> problem (i ^ ": no caller outside its own file"))
    dead;
  let problems = List.rev !problems in
  List.iter print_endline problems;
  Printf.printf "check_exports: %d exports, %d seams, %d without a caller\n"
    (List.length ids) (List.length seams) (List.length dead);
  if problems <> [] then exit 1
