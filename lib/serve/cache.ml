(* On-disk content-addressed cache: DIR/KEY.json holds the canonical
   artifact body. Atomic publishes via rename; LRU-by-mtime eviction
   capped at max_entries; temp files of dead writers swept at open. *)

type t = { root : string; max_entries : int }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* [store] names its temp file KEY.json.tmp.<pid>.<hash>: the pid is
   the writer's, so a file whose pid is dead is an abandoned publish. *)
let temp_pid name =
  match List.rev (String.split_on_char '.' name) with
  | _ :: pid :: "tmp" :: _ -> (
    match int_of_string_opt pid with Some p when p > 0 -> Some p | _ -> None)
  | _ -> None

let dead pid =
  match Unix.kill pid 0 with
  | () -> false
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Orphaned temp files from writers that died between write and rename;
   a live writer's file is its publish in flight. *)
let sweep_temps root =
  match Sys.readdir root with
  | names ->
    Array.iter
      (fun name ->
        match temp_pid name with
        | Some pid when dead pid -> (
          try Unix.unlink (Filename.concat root name)
          with Unix.Unix_error _ -> ())
        | _ -> ())
      names
  | exception Sys_error _ -> ()

let open_dir ?(max_entries = 4096) root =
  mkdir_p root;
  sweep_temps root;
  { root; max_entries = Stdlib.max 1 max_entries }

let dir t = t.root
let path t key = Filename.concat t.root (key ^ ".json")

let entry_names t =
  Sys.readdir t.root |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")

let entries t = List.length (entry_names t)

(* One open and one read loop into a string of the file's size, with
   no channel and so no 64 KB channel buffer per hit. A publish renames
   a complete file into place, so the open file does not change under
   the loop. *)
let read_file p =
  let fd = Unix.openfile p [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let len = (Unix.fstat fd).Unix.st_size in
      let b = Bytes.create len in
      let rec go off =
        if off = len then Bytes.unsafe_to_string b
        else
          match Unix.read fd b off (len - off) with
          | 0 -> Bytes.sub_string b 0 off
          | k -> go (off + k)
      in
      go 0)

let find t key =
  let p = path t key in
  match read_file p with
  | body ->
    (* LRU touch; harmless to lose a race with eviction *)
    (try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ());
    Some body
  | exception Unix.Unix_error _ -> None

(* Below the cap there is nothing to evict, so only a directory over it
   pays one stat per entry: a cache that grows by one entry a miss would
   otherwise make the misses' stat calls quadratic in their number. *)
let evict t =
  let names = entry_names t in
  if List.length names > t.max_entries then begin
    let named =
      List.filter_map
        (fun f ->
          let p = Filename.concat t.root f in
          match Unix.stat p with
          | st -> Some (st.Unix.st_mtime, f, p)
          | exception Unix.Unix_error _ -> None)
        names
    in
    let excess = List.length named - t.max_entries in
    if excess > 0 then
      List.sort compare named
      |> List.filteri (fun i _ -> i < excess)
      |> List.iter (fun (_, _, p) ->
             try Unix.unlink p with Unix.Unix_error _ -> ())
  end

let store t key body =
  let final = path t key in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
      (Hashtbl.hash (key, String.length body))
  in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc body;
         close_out oc);
     Unix.rename tmp final
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  evict t
