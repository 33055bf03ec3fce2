(** The interval structure of Algorithm 2.

    [T = {t_0 < t_1 < ... < t_K}] collects the distinct release times and
    deadlines of all flows; [I_k = \[t_(k-1), t_k\]] are the elementary
    intervals.  Within one interval the set of active flows does not
    change, which is what lets the relaxation decompose. *)

type t

val make : Flow.t list -> t
(** @raise Invalid_argument on an empty flow list. *)

val breakpoints : t -> float array
(** Sorted, distinct. *)

val num_intervals : t -> int
(** [K]. *)

val bounds : t -> int -> float * float
(** [bounds tl k] is [I_(k+1)] for 0-based [k].  @raise Invalid_argument
    if out of range. *)

val length : t -> int -> float
(** [|I_k|]. *)

val horizon : t -> float * float
(** [(t_0, t_K)]. *)

val beta : t -> int -> float
(** [|I_k| / (t_K - t_0)]. *)

val lambda : t -> float
(** [(t_K - t_0) / min_k |I_k|] — the interval-skew factor in the
    approximation ratio (Theorem 6). *)

val active_by_interval : t -> Flow.t list -> Flow.t list array
(** Entry [k]: the flows whose span contains interval [k]
    ({!Flow.spans_interval}), in input order.  One pass, O(n log K)
    plus the size of the result. *)

val interval_indices_of : t -> Flow.t -> int list
(** Indices of the intervals covered by the flow's span, ascending.  The
    union of those intervals is exactly the span (spans start and end on
    breakpoints by construction). *)

val index_at : t -> float -> int option
(** Interval containing time [x] ([None] outside the horizon; boundary
    points resolve to the earlier interval except [t_0]). *)
