(** Flat numeric kernels for the Frank–Wolfe hot path.

    CSR-style [Bigarray] mirrors of the topology plus preallocated
    arenas — Dijkstra scratch, link-load accumulators, the dense
    per-commodity flow matrix, the all-or-nothing path-incidence CSR and
    the line-search support list — so a warm FW iteration in
    {!Frank_wolfe} allocates tens of minor-heap words, not the boxed
    solver's megabytes.  The
    arena record is transparent: {!Frank_wolfe} is the intended consumer
    and indexes the buffers directly; everyone else should go through
    {!Frank_wolfe.solve}.

    Determinism: {!dijkstra} reproduces [Paths.shortest_tree] exactly
    (same lexicographic [(dist, node)] pop order, same adjacency-order
    relaxation, same strict improvement test), so kernel and reference
    solvers agree bit-for-bit — {!Dcn_check.Oracle} asserts this
    differentially. *)

type fbuf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ibuf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type arena = {
  mutable graph : Dcn_topology.Graph.t option;
  mutable n : int;
  mutable m : int;
  mutable row_ptr : ibuf;  (** CSR: node [v]'s slots are [row_ptr.(v) ..
                               row_ptr.(v+1) - 1] *)
  mutable adj_link : ibuf;  (** link id per adjacency slot *)
  mutable adj_dst : ibuf;  (** head node per adjacency slot *)
  mutable lsrc : ibuf;  (** tail node per link id *)
  mutable dist : fbuf;
  mutable pred : ibuf;  (** incoming link id, [-1] at roots *)
  mutable settled : ibuf;
  mutable heap_key : fbuf;
  mutable heap_node : ibuf;
  mutable heap_len : int;
  mutable loads : fbuf;
  mutable aon_loads : fbuf;
  mutable weights : fbuf;
  mutable com_src : ibuf;
  mutable com_dst : ibuf;
  mutable demand : fbuf;
  mutable order : ibuf;  (** commodity evaluation order: sources
                             ascending, index descending within one
                             source (the reference's traversal) *)
  mutable count : ibuf;  (** counting-sort scratch *)
  mutable nc : int;
  mutable flows : fbuf;  (** row-major [nc * m] *)
  mutable path_off : ibuf;  (** path-incidence offsets, per commodity *)
  mutable path_len : ibuf;  (** path-incidence lengths, per commodity *)
  mutable path_links : ibuf;
  mutable support : ibuf;  (** line-search support: the links an FW
                               step moves, ascending *)
  acc : float array;  (** two unboxed loop-carried float sums *)
}

module Workspace : sig
  type t
  (** A handle over per-domain arenas.  One workspace may be threaded
      through [Pool.map]: each domain lazily gets its own arena, so use
      after {!acquire} is lock-free and race-free. *)

  val create : unit -> t

  val default : t
  (** Process-wide fallback used when the caller threads no workspace. *)
end

val acquire : Workspace.t -> graph:Dcn_topology.Graph.t -> nc:int -> arena
(** The calling domain's arena, grown (geometrically) to fit [graph]
    and [nc] commodities, with the CSR mirror rebuilt if [graph] is not
    physically the mirrored one.  Emits a [ws.reuse] trace counter when
    served entirely from existing buffers, [ws.grow] otherwise. *)

val dijkstra : arena -> src:int -> use_weights:bool -> tie:float -> unit
(** Shortest-path tree from [src] into [dist]/[pred].  Edge cost is
    [weights.(l) +. tie] when [use_weights], else hop count [1.]. *)

val reachable : arena -> dst:int -> bool
(** Whether the last {!dijkstra} reached [dst]. *)

val push_path_link : arena -> slot:int -> int -> unit
(** Write a link into path-incidence slot [slot], doubling the store if
    full (allocation-free once the arena is warm). *)
