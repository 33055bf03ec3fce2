(** Flat numeric kernels for the Frank–Wolfe hot path.

    CSR-style [Bigarray] mirrors of the topology plus preallocated
    arenas — Dijkstra scratch, link-load accumulators, the
    all-or-nothing path-incidence CSR, the pairwise active sets (a path
    pool with per-commodity lists over a link store), dense flows for
    the joint step and the line-search support list — so a warm FW
    iteration in {!Frank_wolfe} allocates tens of minor-heap words, not
    the boxed solver's megabytes.  The arena record is transparent:
    {!Frank_wolfe} is the intended consumer and reads the per-link and
    per-commodity buffers and the path weights directly; the path
    stores' layout is walked only by the helpers below.  Everyone else
    should go through {!Frank_wolfe.solve}.

    Determinism: {!dijkstra} reproduces [Paths.shortest_tree] exactly
    (same lexicographic [(dist, node)] pop order, same adjacency-order
    relaxation, same strict improvement test) on every node it settles,
    so kernel and reference solvers agree bit-for-bit —
    {!Dcn_check.Oracle} asserts this differentially. *)

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
  mutable leaf : ibuf;  (** per node, 1 if its only in-link and its only
                            out-link join it to the same other node (a
                            host on its edge switch), else 0 *)
  mutable dist : fbuf;
  mutable pred : ibuf;  (** incoming link id, [-1] at roots *)
  mutable settled : ibuf;
  mutable target : ibuf;  (** per node, 1 if marked by {!mark_target}
                              and not yet settled *)
  mutable targets : int;  (** how many nodes [target] marks *)
  mutable heap_key : fbuf;
  mutable heap_node : ibuf;
  mutable heap_len : int;
  mutable pops : int;  (** {!dijkstra} heap pops over the arena's life *)
  mutable loads : fbuf;
  mutable aon_loads : fbuf;
  mutable weights : fbuf;  (** per link; {!Frank_wolfe} keeps pc' at
                               [loads] here *)
  mutable costs : fbuf;  (** per link; {!Frank_wolfe} keeps pc at [loads]
                             here *)
  mutable com_src : ibuf;
  mutable com_dst : ibuf;
  mutable demand : fbuf;
  mutable order : ibuf;  (** commodity evaluation order: sources
                             ascending, index descending within one
                             source (the reference's traversal) *)
  mutable count : ibuf;  (** counting-sort scratch *)
  mutable nc : int;
  mutable path_off : ibuf;  (** path-incidence offsets, per commodity *)
  mutable path_len : ibuf;  (** path-incidence lengths, per commodity *)
  mutable path_links : ibuf;  (** all-or-nothing paths, source to
                                  destination *)
  mutable act_head : ibuf;  (** first active pool path per commodity,
                                [-1] if none *)
  mutable pool_off : ibuf;  (** pool path's first link-store slot *)
  mutable pool_len : ibuf;  (** pool path's link count *)
  mutable pool_weight : fbuf;  (** pool path's weight *)
  mutable pool_next : ibuf;  (** next path of the same commodity, [-1]
                                 at the tail *)
  mutable pool_paths : int;  (** pool paths handed out this solve *)
  mutable pool_links : ibuf;  (** link store, source to destination *)
  mutable pool_nlinks : int;  (** link-store slots used this solve *)
  mutable flows : fbuf;  (** dense per-commodity flows, row-major,
                             for a solve without warm start (see
                             {!dense_flows}) *)
  mutable support : ibuf;  (** line-search support: the links a
                               pairwise step moves *)
  mutable sup_coef : fbuf;  (** their net coefficients *)
  mutable coef : ibuf;  (** per-link scratch, all zero between steps *)
  acc : float array;  (** six unboxed float cells *)
}

module Workspace : sig
  type t
  (** A handle over per-domain arenas.  One workspace may be threaded
      through [Pool.map]: each domain lazily gets its own arena, so use
      after {!acquire} is lock-free and race-free. *)

  val create : unit -> t

  val default : t
  (** Process-wide fallback used when the caller threads no workspace. *)

  val heap_pops : t -> int
  (** The {!dijkstra} heap pops of every arena of the workspace so far:
      a count of the work, exact on every host. *)
end

val acquire : Workspace.t -> graph:Dcn_topology.Graph.t -> nc:int -> arena
(** The calling domain's arena, grown (geometrically) to fit [graph]
    and [nc] commodities, with the CSR mirror rebuilt if [graph] is not
    physically the mirrored one, and the active sets emptied (every
    commodity's list, the path pool and the link store).  Emits a
    [ws.reuse] trace counter when served entirely from existing
    buffers, [ws.grow] otherwise.  Arenas are per domain, so on a pool
    of several domains the split between the two depends on which
    domain runs each task; only their sum is deterministic.  The path stores also double on
    demand inside the helpers below; like [acquire]'s growth, that
    stops once the arena is warm. *)

val mirror : arena -> Dcn_topology.Graph.t -> keep:(int -> bool) -> unit
(** Rebuild the CSR mirror (and the [leaf] marks) from the graph's
    links that [keep] accepts, in [Graph.out_links] order.  {!acquire}
    mirrors every link; a subset models one-way links, which
    {!Dcn_topology.Graph} cannot build, and the next {!acquire}
    re-mirrors the whole graph. *)

val mark_target : arena -> int -> unit
(** Mark a node for the next {!dijkstra} to stop at (idempotent). *)

val dijkstra : arena -> src:int -> use_weights:bool -> tie:float -> unit
(** Shortest-path tree from [src] into [dist]/[pred].  Edge cost is
    [weights.(l) +. tie] when [use_weights], else hop count [1.].

    Every node it settles gets the [dist] and [pred] that
    [Paths.shortest_tree] computes with the same weights, bit for bit:
    nodes settle in the same lexicographic [(dist, node)] order.  A
    [leaf] node is settled when first relaxed, without a heap push
    (parallel links or a one-way link make a node no leaf).  With no
    node marked, it runs until the heap is empty, so every entry is
    final and an unreachable node keeps [infinity] and [-1].  With
    nodes marked by {!mark_target}, it stops once every marked node
    is settled: then [dist]/[pred] are final on the settled nodes,
    which include every marked node and each node on a marked node's
    [pred] chain, and an unsettled node's entries are tentative (an
    upper bound, or [infinity] and [-1]).  A marked node is
    unreachable exactly when its [dist] is [infinity] afterwards.
    The marks are cleared on return.  [pops] counts its heap pops. *)

val reachable : arena -> dst:int -> bool
(** Whether the last {!dijkstra} reached [dst]; meaningful for [dst]
    settled or marked (see {!dijkstra}). *)

val store_tree_path : arena -> slot:int -> dst:int -> int
(** Write the last {!dijkstra}'s path to [dst] into the path-incidence
    store from [slot] on, source to destination, and return its
    length. *)

val store_list : arena -> slot:int -> int list -> int
(** Write a link list into the path-incidence store from [slot] on and
    return its length. *)

val first_path : arena -> int -> int
(** Commodity [i]'s first (oldest) active pool path, [-1] if none. *)

val next_path : arena -> int -> int
(** The pool path after [p] in its commodity's list, [-1] at the tail. *)

val same_as_aon : arena -> int -> off:int -> len:int -> bool
(** [same_as_aon a p ~off ~len]: whether pool path [p] has exactly the
    links of path-incidence slots [off .. off + len - 1]. *)

val price_aon : arena -> off:int -> len:int -> unit
(** [acc.(0)] <- the sum of [weights] over path-incidence slots
    [off .. off + len - 1], in slot order. *)

val price_path : arena -> int -> unit
(** [acc.(0)] <- the sum of [weights] over pool path [p]'s links, in
    path order. *)

val spread_path : arena -> int -> fbuf -> base:int -> unit
(** [spread_path a p buf ~base] adds pool path [p]'s weight to
    [buf.(base + l)] for each of its links [l], in path order. *)

val build_support : arena -> off:int -> len:int -> int -> int
(** [build_support a ~off ~len v] lists the links a pairwise step from
    pool path [v] to the path in incidence slots [off .. off + len - 1]
    moves: each link whose net coefficient (+1 per occurrence on the
    incidence path, -1 per occurrence on [v]) is nonzero, once, the
    incidence path's links first, into [support]/[sup_coef]; returns
    how many.  [coef] is left all zero. *)

val dense_flows : arena -> rows:int -> fbuf
(** The arena's dense flow buffer, grown to at least [rows * m] cells;
    contents unspecified. *)

val add_aon_path : arena -> int -> off:int -> len:int -> int
(** [add_aon_path a i ~off ~len] copies path-incidence slots
    [off .. off + len - 1] into the link store as a new pool path of
    weight 0, appends it to commodity [i]'s list and returns its id. *)

val remove_path : arena -> int -> int -> unit
(** [remove_path a i p] unlinks pool path [p] from commodity [i]'s list
    ([p] must be on it). *)
