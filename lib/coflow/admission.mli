(** Sigma-order all-or-nothing coflow admission.

    DCoflow's admission discipline, ported to the energy model: walk the
    coflows in {!Coflow.sigma_order} and, for each one, try to schedule
    the {e whole} admitted set plus every member of the candidate.  If a
    capacity-feasible schedule exists the coflow is admitted as a unit;
    otherwise the whole group is rejected — no member of a rejected
    coflow ever transmits, because a coflow that misses its collective
    deadline is worth nothing regardless of how many members finished.

    Two variants share the walk and differ only in the solver answering
    "does the admitted set + candidate fit?":

    - {!Baseline} asks {!Dcn_core.Greedy_ear} — deterministic earliest-
      admissible-rate packing, the sigma-order baseline;
    - {!Energy_aware} asks {!Dcn_core.Random_schedule} — the paper's
      Relaxation + randomised rounding, so the admitted set is also
      scheduled energy-efficiently (Eq. (5)).

    Each variant calls its solver directly, so the result is an
    ordinary {!Dcn_core.Solution.t} and certifies with the conjunction
    certificate of {!Certificate}.  A wall-clock budget reaches the
    solves as the calling domain's ambient {!Dcn_engine.Deadline}.  Each
    admission decision draws from its own pre-split PRNG stream: the
    outcome is a pure function of [(seed, coflows)] at every [--jobs]
    level. *)

type variant = Baseline | Energy_aware

val variant_of_string : string -> (variant, string) result
(** Accepts the labels reports carry, ["sigma-greedy"] and
    ["sigma-energy"], plus ["baseline"] and ["energy"]. *)

type decision = {
  coflow : int;
  label : string;
  admitted : bool;
  reason : string;  (** why it was rejected; [""] when admitted *)
  slack : float;  (** collective deadline minus earliest release *)
}

type t = {
  variant : string;
      (** the variant that ran: ["sigma-greedy"] or ["sigma-energy"] *)
  solver : string;  (** underlying solver, e.g. ["random-schedule"] *)
  order : int list;  (** coflow ids in sigma order *)
  decisions : decision list;  (** one per coflow, sigma order *)
  admitted : Coflow.t list;  (** sigma order *)
  rejected : (Coflow.t * string) list;  (** sigma order, with reasons *)
  solution : Dcn_core.Solution.t option;
      (** schedule of the final admitted set; [None] when it is empty *)
  energy : float;  (** its Eq. (5) energy; [0.] when nothing admitted *)
  completion_rate : float;
      (** admitted coflows / total coflows ([1.] on an empty workload) —
          the {e coflow} completion rate, the DCoflow metric *)
}

val run :
  ?seed:int ->
  ?pool:Dcn_engine.Pool.t ->
  variant:variant ->
  graph:Dcn_topology.Graph.t ->
  power:Dcn_power.Model.t ->
  Coflow.t list ->
  t
(** Run the sigma-order walk.  [seed] (default 0) feeds the randomised
    solver's streams; [pool] defaults to the sequential pool.
    @raise Invalid_argument if two coflows share a member flow id. *)

val to_json : t -> Dcn_engine.Json.t
(** Full report: variant, solver, order, per-coflow decisions, admitted
    and rejected ids, completion rate and energy. *)

val pareto_json : t list -> Dcn_engine.Json.t
(** The Pareto view across variants:
    [[{"variant", "solver", "completion_rate", "energy", "admitted"}]]. *)
