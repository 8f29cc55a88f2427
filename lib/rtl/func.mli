(** RTL functions: a named parameter list plus a flat instruction list.

    The function record owns the generators for fresh registers, labels and
    instruction uids, so every transformation pass that introduces new code
    threads the same [t] and never collides with existing names. *)

type t = {
  name : string;
  mutable params : Reg.t list;
      (** argument homes; rewritten by register allocation *)
  mutable body : Rtl.inst list;
  mutable next_reg : int;
  mutable next_label : int;
  mutable next_uid : int;
  mutable frame_bytes : int;
      (** stack-frame bytes for spill slots (0 when unallocated); the
          simulator reserves this much per activation *)
  mutable fp_reg : Reg.t option;
      (** the frame-pointer register spill code addresses slots through;
          the simulator initialises it to the frame base *)
}

val create : name:string -> params:Reg.t list -> t
(** A function with an empty body. Register numbering starts after the
    highest-numbered parameter. *)

val fresh_reg : t -> Reg.t
val fresh_label : ?hint:string -> t -> Rtl.label

val inst : t -> Rtl.kind -> Rtl.inst
(** Wrap a kind with a fresh uid (does not append it to the body). *)

val append : t -> Rtl.kind -> unit
(** [inst] + append to the body. *)

val set_body : t -> Rtl.inst list -> unit

val refresh_uids : t -> Rtl.inst list -> Rtl.inst list
(** Give every instruction in the list a fresh uid (used when duplicating
    loop bodies). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
