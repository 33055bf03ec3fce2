(** A problem instance: network, power model and deadline-constrained
    flows — the common input of DCFS and DCFSR. *)

type t = private {
  graph : Dcn_topology.Graph.t;
  power : Dcn_power.Model.t;
  flows : Dcn_flow.Flow.t list;
}

(** Why an instance was rejected at construction time.  Catching bad
    inputs here — not deep inside a solver dividing by a zero-length
    window — is what lets the parsers and the fault-repair pipeline
    return typed errors instead of crashing. *)
type error =
  | Empty_flows  (** the flow list is empty *)
  | Duplicate_flow_id of { flow : int }
  | Bad_endpoint of { flow : int; node : int }
      (** an endpoint is not a node of the graph *)
  | Empty_window of { flow : int; release : float; deadline : float }
      (** [release >= deadline]: the flow's density would divide by
          zero (defence in depth over [Flow.make], which rejects such
          windows too — this clause fires for windows so short the
          density is not finite) *)
  | Nonpositive_volume of { flow : int; volume : float }
  | Nonpositive_capacity of { cap : float }

exception Invalid of error

val error_to_string : error -> string

val validate :
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  flows:Dcn_flow.Flow.t list ->
  (unit, error) result
(** The first violated clause, if any; {!make} is [validate] plus
    construction. *)

val make :
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  flows:Dcn_flow.Flow.t list ->
  t
(** @raise Invalid when {!validate} rejects the parts. *)

val make_result :
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  flows:Dcn_flow.Flow.t list ->
  (t, error) result
(** Non-raising {!make}. *)

val horizon : t -> float * float
(** [(T0, T1)] = (earliest release, latest deadline). *)

val num_flows : t -> int

val flow_array : t -> Dcn_flow.Flow.t array
(** Flows sorted by id; ids need not be dense. *)

val find_flow_opt : t -> int -> Dcn_flow.Flow.t option
(** The flow with the given id, or [None]. *)


val timeline : t -> Dcn_flow.Timeline.t
(** Interval structure of the instance (computed fresh). *)

val pp : Format.formatter -> t -> unit
