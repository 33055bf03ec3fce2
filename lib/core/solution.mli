(** The unified result of every solver in this library.

    Every solver — the baselines ({!Baselines.sp_mcf},
    {!Baselines.ecmp_mcf}), the Most-Critical-First pipeline,
    {!Random_schedule.solve}, {!Greedy_ear.solve}, {!Online.solve} and
    {!Exact.search}'s [best] — returns a {!t}: callers read [energy],
    [feasible], [schedule] and [per_flow_rates] uniformly instead of
    reaching into algorithm-specific records.  Algorithm-specific detail
    (MCF's critical groups, Random-Schedule's chosen paths and
    relaxation, admission-control outcomes) lives in [meta], with total
    accessors below. *)

type mcf_group = {
  link : Dcn_topology.Graph.link;  (** the critical link *)
  window : float * float;  (** the critical interval *)
  intensity : float;  (** [delta(I*, e)] in virtual-weight units *)
  flow_ids : int list;  (** members, ascending *)
}

type mcf_detail = {
  groups : mcf_group list;  (** selection order; intensities non-increasing *)
  placement_complete : bool;
      (** the virtual-circuit slot placement succeeded for every flow *)
}

type rounding_detail = {
  paths : (int * Dcn_topology.Graph.link list) list;
      (** flow id -> chosen path *)
  attempts_used : int;
  candidates : (int * int) list;  (** flow id -> number of candidate paths *)
  relaxation : Relaxation.t;  (** the fractional solution (for LB reuse) *)
}

type routed_detail = {
  paths : (int * Dcn_topology.Graph.link list) list;
      (** flow id -> chosen path, admitted flows only *)
  accepted : int list;  (** flow ids served by the schedule, ascending *)
  rejected : int list;
      (** flow ids declined up front (admission control), ascending;
          [[]] for solvers that admit everything *)
}

type meta =
  | Mcf of mcf_detail  (** Most-Critical-First (Algorithm 1) *)
  | Rounding of rounding_detail  (** Random-Schedule (Algorithm 2) *)
  | Routed of routed_detail
      (** one-path-per-flow heuristics ({!Greedy_ear}, {!Online}) *)

type t = {
  algorithm : string;  (** short human-readable name, e.g. ["sp+mcf"] *)
  energy : float;  (** Eq. (5) objective of the returned schedule *)
  feasible : bool;
      (** MCF: the slot placement is complete; RS: the draw respects
          link capacity; Routed: every flow admitted and capacity
          respected *)
  schedule : Dcn_sched.Schedule.t;
  per_flow_rates : (int * float) list;
      (** flow id -> constant transmission rate *)
  meta : meta;
}

val find_rate : t -> int -> float option
(** The flow's constant transmission rate, or [None] for an unknown
    flow id. *)


val placement_complete : t -> bool
(** MCF detail; [true] for Random-Schedule results (Theorem 4 packs
    every flow by construction). *)

val groups : t -> mcf_group list
(** MCF selection order; [[]] for Random-Schedule results. *)

val paths : t -> (int * Dcn_topology.Graph.link list) list
(** Chosen routing.  For MCF results this is read back from the
    schedule's plans. *)

val candidates : t -> (int * int) list
(** Flow id -> number of candidate paths the rounding sampled from;
    [[]] for deterministic algorithms. *)

val attempts_used : t -> int
(** Rounding redraws consumed; [1] for deterministic algorithms. *)

val relaxation : t -> Relaxation.t option
(** The fractional relaxation, when the algorithm solved one. *)

val accepted : t -> int list
(** Flow ids the schedule serves, ascending.  The whole flow set for
    solvers without admission control. *)

val rejected : t -> int list
(** Flow ids declined up front; [[]] for solvers without admission
    control. *)

val acceptance_rate : t -> float
(** [|accepted| / (|accepted| + |rejected|)]; [1.] when nothing was
    rejected. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: algorithm, energy, feasibility. *)
