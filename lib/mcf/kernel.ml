(* Flat numeric kernels for the Frank–Wolfe hot path.

   The boxed solver walks [Graph.out_links] arrays, allocates a
   [(dist, node)] tuple per heap operation and a fresh tree per Dijkstra
   call; at fat-tree k=16 that is hundreds of megabytes of minor-heap
   churn per FW iteration.  This module mirrors the topology into
   CSR-style flat [Bigarray]s once, and gives the iteration preallocated
   arenas — distance/predecessor/heap buffers, link-load accumulators,
   a path-incidence CSR for the all-or-nothing step, the pairwise
   active sets (a path pool with per-commodity lists over a link store),
   dense per-commodity flows for the joint step and the line search's
   support list — so a warm iteration allocates tens of minor-heap
   words (trace-call arguments, the Dijkstra tie bias), however many
   commodities step, not the boxed solver's megabytes.

   Bit-identicality contract: every arithmetic consumer in
   {!Frank_wolfe} replays the reference solver's float operations in the
   same order on these buffers, and {!dijkstra} reproduces the boxed
   [Paths.shortest_tree] exactly on every node it settles — both settle
   nodes in the same lexicographic (dist, node) order, relax out-links
   in array order, and update predecessors under the same strict
   [nd < dist] test, so the resulting trees are
   heap-implementation-independent.  Settling a leaf without queueing
   it, and stopping once the marked destinations are settled, change
   neither order nor any settled entry (see {!dijkstra}).

   Concurrency: a {!Workspace.t} is a handle over per-domain arenas
   (keyed by [Domain.self ()]), so one workspace threads safely through
   [Pool.map] — across the intervals of a relaxation and across
   Random-Schedule attempt batches — with a single short-lived lock per
   {!acquire} and lock-free arena use afterwards (an arena is only ever
   touched by its owning domain). *)

module Ba = Bigarray
module Graph = Dcn_topology.Graph
module Trace = Dcn_engine.Trace

type fbuf = (float, Ba.float64_elt, Ba.c_layout) Ba.Array1.t
type ibuf = (int, Ba.int_elt, Ba.c_layout) Ba.Array1.t

let fbuf len : fbuf = Ba.Array1.create Ba.float64 Ba.c_layout len
let ibuf len : ibuf = Ba.Array1.create Ba.int Ba.c_layout len

type arena = {
  (* CSR topology mirror: out-links of node [v] occupy adjacency slots
     [row_ptr.(v) .. row_ptr.(v+1) - 1], in [Graph.out_links] order. *)
  mutable graph : Graph.t option;  (* the mirrored graph (physical eq) *)
  mutable n : int;  (* nodes of the mirrored graph *)
  mutable m : int;  (* links of the mirrored graph *)
  mutable row_ptr : ibuf;  (* n+1 *)
  mutable adj_link : ibuf;  (* m: link id per adjacency slot *)
  mutable adj_dst : ibuf;  (* m: head node per adjacency slot *)
  mutable lsrc : ibuf;  (* m: tail node per link id (path walk-back) *)
  mutable leaf : ibuf;  (* n, 0/1: the node's only in-link and only
                           out-link join it to one other node *)
  (* Dijkstra scratch, per node. *)
  mutable dist : fbuf;
  mutable pred : ibuf;  (* incoming link id, -1 at roots *)
  mutable settled : ibuf;  (* 0/1 *)
  mutable target : ibuf;  (* 0/1, marked by [mark_target]; all 0
                             between calls *)
  mutable targets : int;  (* marked nodes not yet settled *)
  (* Lazy-deletion binary min-heap of (dist, node), lexicographic. *)
  mutable heap_key : fbuf;
  mutable heap_node : ibuf;
  mutable heap_len : int;
  mutable pops : int;  (* heap pops, ever *)
  (* Per-link accumulators.  [weights] and [costs] are pc' and pc at
     [loads] where {!Frank_wolfe} keeps them current. *)
  mutable loads : fbuf;
  mutable aon_loads : fbuf;
  mutable weights : fbuf;
  mutable costs : fbuf;
  (* Per-commodity vectors. *)
  mutable com_src : ibuf;
  mutable com_dst : ibuf;
  mutable demand : fbuf;
  mutable order : ibuf;  (* evaluation order: src asc, index desc within *)
  mutable count : ibuf;  (* counting-sort scratch, indexed by node *)
  mutable nc : int;  (* commodities of the current problem *)
  (* All-or-nothing path incidence: commodity [i]'s links occupy slots
     [path_off.(i) .. path_off.(i) + path_len.(i) - 1], source to
     destination (rebuilt every iteration; offsets follow evaluation
     order, not index order). *)
  mutable path_off : ibuf;  (* nc *)
  mutable path_len : ibuf;  (* nc *)
  mutable path_links : ibuf;
  (* Pairwise active sets: pool path [p]'s links occupy [pool_links]
     slots [pool_off.(p) .. pool_off.(p) + pool_len.(p) - 1], source to
     destination; commodity [i]'s paths are the list [act_head.(i)],
     [pool_next.(p)], ... ending at -1, oldest first.  Reset by
     {!acquire}; the link store is append-only within a solve. *)
  mutable act_head : ibuf;  (* nc *)
  mutable pool_off : ibuf;
  mutable pool_len : ibuf;
  mutable pool_weight : fbuf;
  mutable pool_next : ibuf;
  mutable pool_paths : int;  (* path ids handed out this solve *)
  mutable pool_links : ibuf;
  mutable pool_nlinks : int;  (* link-store slots used this solve *)
  (* Dense per-commodity flows, row-major [nc * m], for the joint step
     of a solve without warm start; grown on first use. *)
  mutable flows : fbuf;
  (* Line-search support of a pairwise step: the links it moves, with
     their net coefficient (+1 on the target path, -1 on the path
     giving up weight); the first entries are live.  [coef] is the
     per-link scratch that builds it, all zero between steps. *)
  mutable support : ibuf;  (* m *)
  mutable sup_coef : fbuf;  (* m *)
  mutable coef : ibuf;  (* m *)
  (* Loop-carried float sums and the current commodity's step inputs;
     a float array cell is unboxed, a [float ref] is not, so the hot
     loops fold through these (cell roles: see {!Frank_wolfe}). *)
  acc : float array;
}

let create_arena () =
  {
    graph = None;
    n = 0;
    m = 0;
    row_ptr = ibuf 1;
    adj_link = ibuf 1;
    adj_dst = ibuf 1;
    lsrc = ibuf 1;
    leaf = ibuf 1;
    dist = fbuf 1;
    pred = ibuf 1;
    settled = ibuf 1;
    target = ibuf 1;
    targets = 0;
    heap_key = fbuf 1;
    heap_node = ibuf 1;
    heap_len = 0;
    pops = 0;
    loads = fbuf 1;
    aon_loads = fbuf 1;
    weights = fbuf 1;
    costs = fbuf 1;
    com_src = ibuf 1;
    com_dst = ibuf 1;
    demand = fbuf 1;
    order = ibuf 1;
    count = ibuf 1;
    nc = 0;
    path_off = ibuf 1;
    path_len = ibuf 1;
    path_links = ibuf 1;
    act_head = ibuf 1;
    pool_off = ibuf 1;
    pool_len = ibuf 1;
    pool_weight = fbuf 1;
    pool_next = ibuf 1;
    pool_paths = 0;
    pool_links = ibuf 1;
    pool_nlinks = 0;
    flows = fbuf 1;
    support = ibuf 1;
    sup_coef = fbuf 1;
    coef = ibuf 1;
    acc = Array.make 6 0.;
  }

module Workspace = struct
  type t = { lock : Mutex.t; mutable arenas : (int * arena) list }

  let create () = { lock = Mutex.create (); arenas = [] }

  (* Shared fallback used when a caller does not thread a workspace:
     arenas grow to the largest problem each domain has seen and are
     reused for the rest of the process. *)
  let default = create ()

  let heap_pops ws =
    Mutex.lock ws.lock;
    let pops = List.fold_left (fun acc (_, a) -> acc + a.pops) 0 ws.arenas in
    Mutex.unlock ws.lock;
    pops
end

(* Capacity growth is geometric, keeping the contents, so a serving
   session converges to zero growth events; [ws.grow] counts them,
   [ws.reuse] counts acquisitions served entirely from the existing
   arenas. *)
let grown_i (buf : ibuf) needed =
  let cap = Ba.Array1.dim buf in
  if needed <= cap then buf
  else begin
    let bigger = ibuf (max needed (2 * cap)) in
    Ba.Array1.blit buf (Ba.Array1.sub bigger 0 cap);
    bigger
  end

let grown_f (buf : fbuf) needed =
  let cap = Ba.Array1.dim buf in
  if needed <= cap then buf
  else begin
    let bigger = fbuf (max needed (2 * cap)) in
    Ba.Array1.blit buf (Ba.Array1.sub bigger 0 cap);
    bigger
  end

(* A node is a leaf when its only in-link and its only out-link join it
   to the same other node (a host on its edge switch): Dijkstra reaches
   it only from that node, and it relaxes nothing but the link back.
   Parallel links, or a one-way pair of links to two different nodes,
   make it no leaf.  [pred] is scratch here: in-degree, then the tail
   of the last in-link seen. *)
let find_leaves a =
  for v = 0 to a.n - 1 do
    Ba.Array1.unsafe_set a.leaf v 0
  done;
  for v = 0 to a.n - 1 do
    for s = Ba.Array1.unsafe_get a.row_ptr v to Ba.Array1.unsafe_get a.row_ptr (v + 1) - 1 do
      let w = Ba.Array1.unsafe_get a.adj_dst s in
      Ba.Array1.unsafe_set a.leaf w (Ba.Array1.unsafe_get a.leaf w + 1);
      Ba.Array1.unsafe_set a.pred w v
    done
  done;
  for w = 0 to a.n - 1 do
    let lo = Ba.Array1.unsafe_get a.row_ptr w in
    let one_out = Ba.Array1.unsafe_get a.row_ptr (w + 1) - lo = 1 in
    let u = Ba.Array1.unsafe_get a.pred w in
    Ba.Array1.unsafe_set a.leaf w
      (if
         Ba.Array1.unsafe_get a.leaf w = 1 && one_out && Ba.Array1.unsafe_get a.adj_dst lo = u
       then 1
       else 0)
  done

let mirror a g ~keep =
  let n = Graph.num_nodes g in
  let slot = ref 0 in
  for v = 0 to n - 1 do
    Ba.Array1.unsafe_set a.row_ptr v !slot;
    Array.iter
      (fun l ->
        Ba.Array1.unsafe_set a.lsrc l v;
        if keep l then begin
          Ba.Array1.unsafe_set a.adj_link !slot l;
          Ba.Array1.unsafe_set a.adj_dst !slot (Graph.link_dst g l);
          incr slot
        end)
      (Graph.out_links g v)
  done;
  Ba.Array1.unsafe_set a.row_ptr n !slot;
  a.graph <- None;
  a.n <- n;
  a.m <- Graph.num_links g;
  find_leaves a

let acquire ws ~graph ~nc =
  let id = (Domain.self () :> int) in
  let a =
    Mutex.lock ws.Workspace.lock;
    let a =
      match List.assq_opt id ws.Workspace.arenas with
      | Some a -> a
      | None ->
        let a = create_arena () in
        ws.Workspace.arenas <- (id, a) :: ws.Workspace.arenas;
        a
    in
    Mutex.unlock ws.Workspace.lock;
    a
  in
  let n = Graph.num_nodes graph in
  let m = Graph.num_links graph in
  let grew = ref false in
  let gf buf needed =
    let b = grown_f buf needed in
    if b != buf then grew := true;
    b
  in
  let gi buf needed =
    let b = grown_i buf needed in
    if b != buf then grew := true;
    b
  in
  a.row_ptr <- gi a.row_ptr (n + 1);
  a.adj_link <- gi a.adj_link (max 1 m);
  a.adj_dst <- gi a.adj_dst (max 1 m);
  a.lsrc <- gi a.lsrc (max 1 m);
  a.leaf <- gi a.leaf n;
  a.dist <- gf a.dist n;
  a.pred <- gi a.pred n;
  a.settled <- gi a.settled n;
  a.target <- gi a.target n;
  a.heap_key <- gf a.heap_key (n + m + 1);
  a.heap_node <- gi a.heap_node (n + m + 1);
  a.loads <- gf a.loads (max 1 m);
  a.aon_loads <- gf a.aon_loads (max 1 m);
  a.weights <- gf a.weights (max 1 m);
  a.costs <- gf a.costs (max 1 m);
  a.com_src <- gi a.com_src (max 1 nc);
  a.com_dst <- gi a.com_dst (max 1 nc);
  a.demand <- gf a.demand (max 1 nc);
  a.order <- gi a.order (max 1 nc);
  a.count <- gi a.count (n + 1);
  a.path_off <- gi a.path_off (max 1 nc);
  a.path_len <- gi a.path_len (max 1 nc);
  (* Paths are short (the network diameter); start near 8 hops per
     path and 4 active paths per commodity, and let the path stores
     double on demand mid-solve. *)
  a.path_links <- gi a.path_links (8 * max 1 nc);
  a.act_head <- gi a.act_head (max 1 nc);
  a.pool_off <- gi a.pool_off (4 * max 1 nc);
  a.pool_len <- gi a.pool_len (4 * max 1 nc);
  a.pool_weight <- gf a.pool_weight (4 * max 1 nc);
  a.pool_next <- gi a.pool_next (4 * max 1 nc);
  a.pool_links <- gi a.pool_links (32 * max 1 nc);
  a.support <- gi a.support (max 1 m);
  a.sup_coef <- gf a.sup_coef (max 1 m);
  a.coef <- gi a.coef (max 1 m);
  let same_graph = match a.graph with Some g -> g == graph | None -> false in
  if not same_graph then begin
    mirror a graph ~keep:(fun _ -> true);
    a.graph <- Some graph
  end;
  (* A grown [target] holds garbage past its old end. *)
  for v = 0 to n - 1 do
    Ba.Array1.unsafe_set a.target v 0
  done;
  a.targets <- 0;
  a.nc <- nc;
  for i = 0 to nc - 1 do
    Ba.Array1.unsafe_set a.act_head i (-1)
  done;
  a.pool_paths <- 0;
  a.pool_nlinks <- 0;
  for e = 0 to m - 1 do
    Ba.Array1.unsafe_set a.coef e 0
  done;
  if Trace.on () then
    Trace.counter (if !grew || not same_graph then "ws.grow" else "ws.reuse") 1.;
  a

(* Binary min-heap of (dist, node), lexicographic, with lazy deletion.
   Sifts move a hole instead of swapping, and keys are read from the
   buffers (never passed as float arguments, which would box on every
   call). *)

(* Push node [v] keyed by its current tentative distance (the snapshot
   the reference pushes as the tuple's first component). *)
let heap_push a v =
  let keys = a.heap_key and nodes = a.heap_node in
  let k = Ba.Array1.unsafe_get a.dist v in
  let i = ref a.heap_len in
  a.heap_len <- !i + 1;
  let go = ref true in
  while !go && !i > 0 do
    let p = (!i - 1) / 2 in
    let kp = Ba.Array1.unsafe_get keys p in
    if k < kp || (k = kp && v < Ba.Array1.unsafe_get nodes p) then begin
      Ba.Array1.unsafe_set keys !i kp;
      Ba.Array1.unsafe_set nodes !i (Ba.Array1.unsafe_get nodes p);
      i := p
    end
    else go := false
  done;
  Ba.Array1.unsafe_set keys !i k;
  Ba.Array1.unsafe_set nodes !i v

(* Pop the minimum node, or -1 on empty.  The popped key is not needed:
   on a node's first (settling) pop it equals [dist.(v)]. *)
let heap_pop a =
  if a.heap_len = 0 then -1
  else begin
    a.pops <- a.pops + 1;
    let keys = a.heap_key and nodes = a.heap_node in
    let top = Ba.Array1.unsafe_get nodes 0 in
    let len = a.heap_len - 1 in
    a.heap_len <- len;
    let k = Ba.Array1.unsafe_get keys len in
    let v = Ba.Array1.unsafe_get nodes len in
    let i = ref 0 in
    let go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      if l >= len then go := false
      else begin
        let r = l + 1 in
        let c =
          if r < len then begin
            let kl = Ba.Array1.unsafe_get keys l and kr = Ba.Array1.unsafe_get keys r in
            if kr < kl || (kr = kl && Ba.Array1.unsafe_get nodes r < Ba.Array1.unsafe_get nodes l)
            then r
            else l
          end
          else l
        in
        let kc = Ba.Array1.unsafe_get keys c in
        let vc = Ba.Array1.unsafe_get nodes c in
        if kc < k || (kc = k && vc < v) then begin
          Ba.Array1.unsafe_set keys !i kc;
          Ba.Array1.unsafe_set nodes !i vc;
          i := c
        end
        else go := false
      end
    done;
    Ba.Array1.unsafe_set keys !i k;
    Ba.Array1.unsafe_set nodes !i v;
    top
  end

let mark_target a v =
  if Ba.Array1.unsafe_get a.target v = 0 then begin
    Ba.Array1.unsafe_set a.target v 1;
    a.targets <- a.targets + 1
  end

(* Settle [v]: its [dist]/[pred] are final; count it off the targets. *)
let settle a v =
  Ba.Array1.unsafe_set a.settled v 1;
  if Ba.Array1.unsafe_get a.target v = 1 then begin
    Ba.Array1.unsafe_set a.target v 0;
    a.targets <- a.targets - 1
  end

(* Shortest-path tree from [src] into [dist]/[pred].

   [use_weights]: edge cost is [weights.(l) +. tie] (the FW marginal
   step); otherwise hop count 1.0 (the init/reachability step) — the
   same two weightings the reference feeds [Paths.shortest_tree].
   Replays the reference exactly: lazy deletion with a settled array,
   out-links relaxed in adjacency order, strict [nd < dist.(w)].  Two
   shortcuts leave every settled node's [dist]/[pred] as the reference
   has them.  A leaf reached from the node being settled is settled at
   once instead of queued: nothing else reaches it, and its one
   out-link leads back to a settled node, while the other nodes pop in
   the same (dist, node) order whether or not it was queued.  And with
   targets marked, the loop stops once the last one is settled. *)
let dijkstra a ~src ~use_weights ~tie =
  let n = a.n in
  let dist = a.dist and pred = a.pred and settled = a.settled in
  let row_ptr = a.row_ptr and adj_dst = a.adj_dst and adj_link = a.adj_link in
  let weights = a.weights and leaf = a.leaf in
  for v = 0 to n - 1 do
    Ba.Array1.unsafe_set dist v infinity;
    Ba.Array1.unsafe_set pred v (-1);
    Ba.Array1.unsafe_set settled v 0
  done;
  let early = a.targets > 0 in
  a.heap_len <- 0;
  Ba.Array1.unsafe_set dist src 0.;
  heap_push a src;
  let v = ref (heap_pop a) in
  while !v >= 0 do
    if Ba.Array1.unsafe_get settled !v = 0 then begin
      settle a !v;
      let d = Ba.Array1.unsafe_get dist !v in
      let lo = Ba.Array1.unsafe_get row_ptr !v in
      let hi = Ba.Array1.unsafe_get row_ptr (!v + 1) in
      for s = lo to hi - 1 do
        let w = Ba.Array1.unsafe_get adj_dst s in
        if Ba.Array1.unsafe_get settled w = 0 then begin
          let l = Ba.Array1.unsafe_get adj_link s in
          let c =
            if use_weights then Ba.Array1.unsafe_get weights l +. tie else 1.
          in
          let nd = d +. c in
          if nd < Ba.Array1.unsafe_get dist w then begin
            Ba.Array1.unsafe_set dist w nd;
            Ba.Array1.unsafe_set pred w l;
            if Ba.Array1.unsafe_get leaf w = 1 then settle a w else heap_push a w
          end
        end
      done
    end;
    v := if early && a.targets = 0 then -1 else heap_pop a
  done;
  (* Targets left unsettled are unreachable; clear their marks. *)
  if a.targets > 0 then begin
    for u = 0 to n - 1 do
      Ba.Array1.unsafe_set a.target u 0
    done;
    a.targets <- 0
  end

let reachable a ~dst = Ba.Array1.unsafe_get a.dist dst < infinity

(* The path helpers below grow their store themselves: a solve may add
   more paths than [acquire] sized for, and only until the arena is
   warm. *)

let store_tree_path a ~slot ~dst =
  let len = ref 0 in
  let v = ref dst in
  while Ba.Array1.unsafe_get a.pred !v >= 0 do
    incr len;
    v := Ba.Array1.unsafe_get a.lsrc (Ba.Array1.unsafe_get a.pred !v)
  done;
  a.path_links <- grown_i a.path_links (slot + !len);
  (* Walk back from [dst], filling the slots from the end. *)
  let k = ref (slot + !len - 1) in
  v := dst;
  while Ba.Array1.unsafe_get a.pred !v >= 0 do
    let l = Ba.Array1.unsafe_get a.pred !v in
    Ba.Array1.unsafe_set a.path_links !k l;
    decr k;
    v := Ba.Array1.unsafe_get a.lsrc l
  done;
  !len

let store_list a ~slot links =
  let len = List.length links in
  a.path_links <- grown_i a.path_links (slot + len);
  List.iteri (fun k l -> Ba.Array1.unsafe_set a.path_links (slot + k) l) links;
  len

let first_path a i = Ba.Array1.unsafe_get a.act_head i
let next_path a p = Ba.Array1.unsafe_get a.pool_next p

let same_as_aon a p ~off ~len =
  Ba.Array1.unsafe_get a.pool_len p = len
  &&
  let base = Ba.Array1.unsafe_get a.pool_off p in
  let k = ref 0 in
  while
    !k < len
    && Ba.Array1.unsafe_get a.pool_links (base + !k)
       = Ba.Array1.unsafe_get a.path_links (off + !k)
  do
    incr k
  done;
  !k = len

(* [acc.(0)] <- the sum of [weights] over slots [off, off + len) of a
   link store, in slot order. *)
let sum_weights a (links : ibuf) ~off ~len =
  a.acc.(0) <- 0.;
  for k = off to off + len - 1 do
    a.acc.(0) <-
      a.acc.(0) +. Ba.Array1.unsafe_get a.weights (Ba.Array1.unsafe_get links k)
  done

let price_aon a ~off ~len = sum_weights a a.path_links ~off ~len

let price_path a p =
  sum_weights a a.pool_links ~off:(Ba.Array1.unsafe_get a.pool_off p)
    ~len:(Ba.Array1.unsafe_get a.pool_len p)

let spread_path a p (buf : fbuf) ~base =
  let w = Ba.Array1.unsafe_get a.pool_weight p in
  let off = Ba.Array1.unsafe_get a.pool_off p in
  for k = off to off + Ba.Array1.unsafe_get a.pool_len p - 1 do
    let i = base + Ba.Array1.unsafe_get a.pool_links k in
    Ba.Array1.unsafe_set buf i (Ba.Array1.unsafe_get buf i +. w)
  done

let build_support a ~off ~len v =
  let vo = Ba.Array1.unsafe_get a.pool_off v in
  let vlen = Ba.Array1.unsafe_get a.pool_len v in
  for k = off to off + len - 1 do
    let l = Ba.Array1.unsafe_get a.path_links k in
    Ba.Array1.unsafe_set a.coef l (Ba.Array1.unsafe_get a.coef l + 1)
  done;
  for k = vo to vo + vlen - 1 do
    let l = Ba.Array1.unsafe_get a.pool_links k in
    Ba.Array1.unsafe_set a.coef l (Ba.Array1.unsafe_get a.coef l - 1)
  done;
  (* List each link with a nonzero net coefficient once, s's links
     first, clearing [coef] on the way.  (Plain loops: a local closure
     would be allocated on every call.) *)
  let ns = ref 0 in
  for j = 0 to len + vlen - 1 do
    let l =
      if j < len then Ba.Array1.unsafe_get a.path_links (off + j)
      else Ba.Array1.unsafe_get a.pool_links (vo + j - len)
    in
    let c = Ba.Array1.unsafe_get a.coef l in
    if c <> 0 then begin
      Ba.Array1.unsafe_set a.coef l 0;
      Ba.Array1.unsafe_set a.support !ns l;
      Ba.Array1.unsafe_set a.sup_coef !ns (float_of_int c);
      incr ns
    end
  done;
  !ns

let dense_flows a ~rows =
  a.flows <- grown_f a.flows (max 1 (rows * a.m));
  a.flows

let add_aon_path a i ~off ~len =
  let p = a.pool_paths in
  if p >= Ba.Array1.dim a.pool_off then begin
    a.pool_off <- grown_i a.pool_off (p + 1);
    a.pool_len <- grown_i a.pool_len (p + 1);
    a.pool_weight <- grown_f a.pool_weight (p + 1);
    a.pool_next <- grown_i a.pool_next (p + 1)
  end;
  a.pool_paths <- p + 1;
  let base = a.pool_nlinks in
  a.pool_links <- grown_i a.pool_links (base + len);
  for k = 0 to len - 1 do
    Ba.Array1.unsafe_set a.pool_links (base + k)
      (Ba.Array1.unsafe_get a.path_links (off + k))
  done;
  a.pool_nlinks <- base + len;
  Ba.Array1.unsafe_set a.pool_off p base;
  Ba.Array1.unsafe_set a.pool_len p len;
  Ba.Array1.unsafe_set a.pool_weight p 0.;
  Ba.Array1.unsafe_set a.pool_next p (-1);
  (* Append at the tail of commodity [i]'s list. *)
  let head = Ba.Array1.unsafe_get a.act_head i in
  if head < 0 then Ba.Array1.unsafe_set a.act_head i p
  else begin
    let q = ref head in
    while Ba.Array1.unsafe_get a.pool_next !q >= 0 do
      q := Ba.Array1.unsafe_get a.pool_next !q
    done;
    Ba.Array1.unsafe_set a.pool_next !q p
  end;
  p

let remove_path a i p =
  let next = Ba.Array1.unsafe_get a.pool_next p in
  let head = Ba.Array1.unsafe_get a.act_head i in
  if head = p then Ba.Array1.unsafe_set a.act_head i next
  else begin
    let q = ref head in
    while Ba.Array1.unsafe_get a.pool_next !q <> p do
      q := Ba.Array1.unsafe_get a.pool_next !q
    done;
    Ba.Array1.unsafe_set a.pool_next !q next
  end
