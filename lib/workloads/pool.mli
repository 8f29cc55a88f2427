(** Re-export of {!Mac_parallel.Pool}. Nothing in the library uses it:
    it stays only because the end-to-end benchmark ([bench/e2e/serve.ml])
    still names [Mac_workloads.Pool.jobs]. Delete it together with that
    reference. *)

include module type of Mac_parallel.Pool
