(** Piecewise-constant rate profiles.

    The transmission rate of a link over time, [x_e(t)] in the paper, is
    a step function: the sum of the rates of the flow slots crossing the
    link.  This module builds the step function from slots and
    integrates power over it. *)

type t
(** Immutable; segments with rate below [1e-12] count as idle. *)

val empty : t

val of_slots : (float * float * float) list -> t
(** [(start, stop, rate)] triples, additive where they overlap.
    Zero-length or zero-rate slots are ignored.  @raise Invalid_argument
    on negative rate or [stop < start]. *)

val of_slot_arrays :
  start:float array -> stop:float array -> rate:float array -> pos:int -> len:int -> t
(** {!of_slots} of the slots [pos .. pos + len - 1] of three parallel
    arrays. *)

val segments : t -> (float * float * float) list
(** Maximal constant segments [(start, stop, rate)] with positive rate,
    chronological, non-overlapping. *)

val rate_at : t -> float -> float
(** Rate at time [x] (right-continuous at breakpoints). *)

val max_rate : t -> float

val busy_time : t -> float
(** Total measure of positive-rate time. *)

val volume : t -> float
(** [integral of x(t) dt] — total data carried. *)

val is_idle : t -> bool

val dynamic_energy : Dcn_power.Model.t -> t -> float
(** [integral of mu * x(t)^alpha dt] over busy time — the speed-scaling
    part of Eq. (5) for one link. *)
