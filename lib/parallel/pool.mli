(** Deterministic parallel map over OCaml 5 domains.

    The compiler and simulator keep all state per run, so independent
    (benchmark, machine, mode) cells can execute on separate domains.
    Results always come back in input order — parallel and serial runs
    are observably identical apart from wall-clock time.

    A domain spawned by this module (by {!map} or {!spawn}) is
    {e pool-owned}: a [map] called inside it runs serially in that
    domain, so nesting never multiplies the live-domain count. *)

val jobs : unit -> int
(** Worker count: [MAC_JOBS] when set to a positive integer, otherwise
    {!Domain.recommended_domain_count}. *)

val effective_jobs : ?jobs:int -> int -> int
(** [effective_jobs ?jobs n] is the number of domains {!map} actually
    uses for [n] work items: [min n (max 1 jobs)] (default {!jobs}[ ()]).
    Reports record this next to the requested count so headers stay
    honest when the item count caps the fan-out. Inside a pool-owned
    domain it is always 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element on up to [jobs] domains
    (default {!jobs}[ ()]) and returns the results in input order. If any
    application raised, the exception of the lowest-indexed failure is
    re-raised after all workers have joined. [?jobs:1], or a call from
    a pool-owned domain, runs serially in the calling domain. *)

val spawn : (unit -> 'a) -> 'a Domain.t
(** [Domain.spawn], with the new domain marked pool-owned: for
    long-lived workers whose own nested {!map}s must not spawn. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run thunks] = [map (fun f -> f ()) thunks]. *)
