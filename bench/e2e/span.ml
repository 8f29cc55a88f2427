(* The monotonic clock and the traced run's spans.

   A span is one call into a layer, timed from the benchmark's side of
   the call, with the minor words the calling domain allocated during
   it. Spans of one cell or request share [id]. Some spans are not
   timed here but read off fields the system already returns
   ([pass_seconds], [Interp] phases, the artifact's [compile_seconds]);
   those carry [derived = true] and are laid out inside their parent in
   order, because only their durations are known. Spans stay in memory
   and are written as one Chrome trace when the run ends. *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

type span = {
  name : string;
  id : int;
  tid : int;
  start_ns : int64;
  dur_ns : int64;
  words : float;  (** minor words allocated; 0 for derived spans *)
  derived : bool;
  args : (string * float) list;
}

(* One recorder per domain; [on = false] makes every call a plain
   call, which is how the untraced run executes. *)
type t = { on : bool; tid : int; mutable spans : span list }

let recorder ~on ~tid = { on; tid; spans = [] }

let record t ~id ?(args = []) ?(words = 0.0) ?(derived = false) name ~start_ns
    ~dur_ns =
  if t.on then
    t.spans <-
      { name; id; tid = t.tid; start_ns; dur_ns; words; derived; args }
      :: t.spans

let time t ~id ?args name f =
  if not t.on then f ()
  else begin
    let w0 = Gc.minor_words () in
    let start_ns = now_ns () in
    let r = f () in
    let dur_ns = Int64.sub (now_ns ()) start_ns in
    record t ~id ?args ~words:(Gc.minor_words () -. w0) name ~start_ns ~dur_ns;
    r
  end

let ns_of_seconds s = Int64.of_float (s *. 1e9)

(* Record [parts] (name, seconds, args) back to back from [start_ns]. *)
let derive t ~id ~start_ns parts =
  if t.on then
    ignore
      (List.fold_left
         (fun start_ns (name, seconds, args) ->
           let dur_ns = ns_of_seconds seconds in
           record t ~id ~args ~derived:true name ~start_ns ~dur_ns;
           Int64.add start_ns dur_ns)
         start_ns parts)

(* The last span recorded, to attach args known only afterwards. *)
let amend t f =
  match t.spans with s :: rest -> t.spans <- f s :: rest | [] -> ()

let spans ts = List.concat_map (fun t -> List.rev t.spans) ts

(* --- aggregation -------------------------------------------------- *)

let named name = List.filter (fun s -> String.equal s.name name)
let count name spans = List.length (named name spans)

let total_seconds name spans =
  List.fold_left
    (fun acc s -> acc +. (Int64.to_float s.dur_ns *. 1e-9))
    0.0 (named name spans)

let arg key s = Option.value (List.assoc_opt key s.args) ~default:0.0

(* --- Chrome trace ------------------------------------------------- *)

module J = Mac_workloads.Jsonio

let chrome_trace spans =
  let t0 =
    List.fold_left (fun m s -> Stdlib.min m s.start_ns) Int64.max_int spans
  in
  let us ns = Int64.to_float ns /. 1e3 in
  J.render
    (J.Obj
       [
         ( "traceEvents",
           J.Arr
             (List.map
                (fun s ->
                  J.Obj
                    [
                      ("name", J.Str s.name);
                      ("cat", J.Str (if s.derived then "derived" else "timed"));
                      ("ph", J.Str "X");
                      ("ts", J.Num (us (Int64.sub s.start_ns t0)));
                      ("dur", J.Num (us s.dur_ns));
                      ("pid", J.Num 1.0);
                      ("tid", J.Num (float_of_int s.tid));
                      ( "args",
                        J.Obj
                          (("id", J.Num (float_of_int s.id))
                          :: ("minor_words", J.Num s.words)
                          :: List.map (fun (k, v) -> (k, J.Num v)) s.args) );
                    ])
                spans) );
         ("displayTimeUnit", J.Str "ms");
       ])
