(* Unboxed register file shared by both engines.

   An [int64 array] stores one pointer per element: every register write
   allocates a fresh box and pays the [caml_modify] write barrier, and
   every read chases a pointer. Backing the file with [Bytes] instead
   keeps register values flat — the stdlib's 64-bit bytes primitives
   compile to single unboxed loads/stores, so a register transfer inside
   a compiled closure never touches the minor heap.

   Register values are stored in native byte order: the file is private
   to one activation and never aliases simulated memory, so its layout
   is unobservable (simulated memory itself stays explicitly
   little-endian in {!Memory}). *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let create n = Bytes.make (n lsl 3) '\000'
let size (t : t) = Bytes.length t lsr 3
let get (t : t) i = get64 t (i lsl 3)
let set (t : t) i v = set64 t (i lsl 3) v

(* Byte-offset primitives re-exported for the jit; see the interface. *)
external uget : t -> int -> int64 = "%caml_bytes_get64u"
external uset : t -> int -> int64 -> unit = "%caml_bytes_set64u"
