(** The bounded pending-event queue between the transport and the
    session — backpressure for arrivals that outpace the incremental
    re-solve.

    The accept loop enqueues parsed events here and, once per loop
    turn, applies everything queued as one batch; when the queue is
    full the configured {!Dcn_resilience.Repair.shed_policy} picks a
    victim, which the transport answers with a typed [Shed] outcome
    instead of silently growing the heap.  Shed events never reach the
    WAL: shedding is a refusal, not a commitment. *)

type 'a t

val create : capacity:int -> policy:Dcn_resilience.Repair.shed_policy -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val length : 'a t -> int
val capacity : 'a t -> int
val policy : 'a t -> Dcn_resilience.Repair.shed_policy

type 'a admission =
  | Enqueued
  | Shed of 'a
      (** the victim: the offered item under [Shed_newest], the evicted
          oldest item under [Shed_oldest] (the offered item was
          enqueued in its place) *)

val offer : 'a t -> 'a -> 'a admission
(** Enqueue, or shed per policy when full.  Counts [serve.shed]. *)

val pop_all : 'a t -> 'a list
(** Every queued item, oldest first, leaving the queue empty. *)
