(** Induction-update combining and displacement folding.

    Within a basic block, a register's immediate self-increments
    ([p = p + 8]) are deferred: following memory references through [p]
    absorb the accumulated offset into their displacement, and one combined
    update is re-materialised only where the register's value is otherwise
    observed (a non-memory use, a different definition, a branch, or the
    block end). An unrolled pointer loop

    {v  p+=1; x=B[p]; p+=1; x=B[p]; p+=1; x=B[p]; ...  v}

    becomes

    {v  x=B[p+1]; x=B[p+2]; x=B[p+3]; ...; p+=k  v}

    which is the shape the paper's Fig. 1c loop has (one pointer bump per
    unrolled iteration). *)

open Mac_rtl

val run : Func.t -> bool
(** Rewrite in place; returns [true] iff the kind sequence of the body
    changed. On [false] the body is left physically untouched (an
    increment deferred and flushed back unmoved is no rewrite). *)
