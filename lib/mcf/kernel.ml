(* Flat numeric kernels for the Frank–Wolfe hot path.

   The boxed solver walks [Graph.out_links] arrays, allocates a
   [(dist, node)] tuple per heap operation and a fresh tree per Dijkstra
   call; at fat-tree k=16 that is hundreds of megabytes of minor-heap
   churn per FW iteration.  This module mirrors the topology into
   CSR-style flat [Bigarray]s once, and gives the iteration preallocated
   arenas — distance/predecessor/heap buffers, link-load accumulators,
   the dense per-commodity flow matrix, a path-incidence CSR for the
   all-or-nothing step and the line search's support list — so a warm
   iteration allocates tens of minor-heap words (the line search's
   derivative closure, its boxed arguments, trace-call arguments), not
   the boxed solver's megabytes.

   Bit-identicality contract: every arithmetic consumer in
   {!Frank_wolfe} replays the reference solver's float operations in the
   same order on these buffers, and {!dijkstra} reproduces the boxed
   [Paths.shortest_tree] exactly — both pop the same (dist, node)
   multiset in the same lexicographic order, relax out-links in array
   order, and update predecessors under the same strict [nd < dist]
   test, so the resulting trees are heap-implementation-independent.

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
  (* Dijkstra scratch, per node. *)
  mutable dist : fbuf;
  mutable pred : ibuf;  (* incoming link id, -1 at roots *)
  mutable settled : ibuf;  (* 0/1 *)
  (* Lazy-deletion binary min-heap of (dist, node), lexicographic. *)
  mutable heap_key : fbuf;
  mutable heap_node : ibuf;
  mutable heap_len : int;
  (* Per-link accumulators. *)
  mutable loads : fbuf;
  mutable aon_loads : fbuf;
  mutable weights : fbuf;
  (* Per-commodity vectors. *)
  mutable com_src : ibuf;
  mutable com_dst : ibuf;
  mutable demand : fbuf;
  mutable order : ibuf;  (* evaluation order: src asc, index desc within *)
  mutable count : ibuf;  (* counting-sort scratch, indexed by node *)
  mutable nc : int;  (* commodities of the current problem *)
  (* Dense per-commodity flows, row-major [nc * m]. *)
  mutable flows : fbuf;
  (* All-or-nothing path incidence: commodity [i]'s links occupy slots
     [path_off.(i) .. path_off.(i) + path_len.(i) - 1] (rebuilt every
     iteration; offsets follow evaluation order, not index order). *)
  mutable path_off : ibuf;  (* nc *)
  mutable path_len : ibuf;  (* nc *)
  mutable path_links : ibuf;
  (* Line-search support: the links an FW step moves, ascending
     (rebuilt every iteration; the first entries are live). *)
  mutable support : ibuf;  (* m *)
  (* Loop-carried float sums; a float array cell is unboxed, a
     [float ref] is not, so the hot loops fold through these: cell 0
     is the running sum of the current loop, cell 1 the objective over
     the line-search support at the current loads. *)
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
    dist = fbuf 1;
    pred = ibuf 1;
    settled = ibuf 1;
    heap_key = fbuf 1;
    heap_node = ibuf 1;
    heap_len = 0;
    loads = fbuf 1;
    aon_loads = fbuf 1;
    weights = fbuf 1;
    com_src = ibuf 1;
    com_dst = ibuf 1;
    demand = fbuf 1;
    order = ibuf 1;
    count = ibuf 1;
    nc = 0;
    flows = fbuf 1;
    path_off = ibuf 1;
    path_len = ibuf 1;
    path_links = ibuf 1;
    support = ibuf 1;
    acc = Array.make 2 0.;
  }

module Workspace = struct
  type t = { lock : Mutex.t; mutable arenas : (int * arena) list }

  let create () = { lock = Mutex.create (); arenas = [] }

  (* Shared fallback used when a caller does not thread a workspace:
     arenas grow to the largest problem each domain has seen and are
     reused for the rest of the process. *)
  let default = create ()
end

(* Capacity growth is geometric so a serving session converges to zero
   growth events; [ws.grow] counts them, [ws.reuse] counts acquisitions
   served entirely from the existing arenas. *)
let ensure_f buf needed =
  let cap = Ba.Array1.dim !buf in
  if cap < needed then begin
    buf := fbuf (max needed (2 * cap));
    true
  end
  else false

let ensure_i buf needed =
  let cap = Ba.Array1.dim !buf in
  if cap < needed then begin
    buf := ibuf (max needed (2 * cap));
    true
  end
  else false

let mirror_graph a g =
  let n = Graph.num_nodes g in
  let m = Graph.num_links g in
  let slot = ref 0 in
  for v = 0 to n - 1 do
    Ba.Array1.unsafe_set a.row_ptr v !slot;
    Array.iter
      (fun l ->
        Ba.Array1.unsafe_set a.adj_link !slot l;
        Ba.Array1.unsafe_set a.adj_dst !slot (Graph.link_dst g l);
        Ba.Array1.unsafe_set a.lsrc l v;
        incr slot)
      (Graph.out_links g v)
  done;
  Ba.Array1.unsafe_set a.row_ptr n !slot;
  assert (!slot = m);
  a.graph <- Some g;
  a.n <- n;
  a.m <- m

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
  let gf buf needed = if ensure_f buf needed then grew := true in
  let gi buf needed = if ensure_i buf needed then grew := true in
  let rp = ref a.row_ptr in gi rp (n + 1); a.row_ptr <- !rp;
  let al = ref a.adj_link in gi al (max 1 m); a.adj_link <- !al;
  let ad = ref a.adj_dst in gi ad (max 1 m); a.adj_dst <- !ad;
  let ls = ref a.lsrc in gi ls (max 1 m); a.lsrc <- !ls;
  let di = ref a.dist in gf di n; a.dist <- !di;
  let pr = ref a.pred in gi pr n; a.pred <- !pr;
  let se = ref a.settled in gi se n; a.settled <- !se;
  let hk = ref a.heap_key in gf hk (n + m + 1); a.heap_key <- !hk;
  let hn = ref a.heap_node in gi hn (n + m + 1); a.heap_node <- !hn;
  let lo = ref a.loads in gf lo (max 1 m); a.loads <- !lo;
  let ao = ref a.aon_loads in gf ao (max 1 m); a.aon_loads <- !ao;
  let we = ref a.weights in gf we (max 1 m); a.weights <- !we;
  let cs = ref a.com_src in gi cs (max 1 nc); a.com_src <- !cs;
  let cd = ref a.com_dst in gi cd (max 1 nc); a.com_dst <- !cd;
  let de = ref a.demand in gf de (max 1 nc); a.demand <- !de;
  let ord = ref a.order in gi ord (max 1 nc); a.order <- !ord;
  let cn = ref a.count in gi cn (n + 1); a.count <- !cn;
  let fl = ref a.flows in gf fl (max 1 (nc * m)); a.flows <- !fl;
  let po = ref a.path_off in gi po (max 1 nc); a.path_off <- !po;
  let pn = ref a.path_len in gi pn (max 1 nc); a.path_len <- !pn;
  (* Paths are short (the network diameter); start near 8 hops per
     commodity and let {!push_path_link} double on demand. *)
  let pl = ref a.path_links in gi pl (max 1 (8 * nc)); a.path_links <- !pl;
  let su = ref a.support in gi su (max 1 m); a.support <- !su;
  let same_graph = match a.graph with Some g -> g == graph | None -> false in
  if not same_graph then mirror_graph a graph;
  a.nc <- nc;
  if Trace.on () then
    Trace.counter (if !grew || not same_graph then "ws.grow" else "ws.reuse") 1.;
  a

(* Binary-heap helpers.  Keys are read from the buffers (never passed as
   float arguments, which would box on every call). *)

let heap_swap a i j =
  let ki = Ba.Array1.unsafe_get a.heap_key i in
  let ni = Ba.Array1.unsafe_get a.heap_node i in
  Ba.Array1.unsafe_set a.heap_key i (Ba.Array1.unsafe_get a.heap_key j);
  Ba.Array1.unsafe_set a.heap_node i (Ba.Array1.unsafe_get a.heap_node j);
  Ba.Array1.unsafe_set a.heap_key j ki;
  Ba.Array1.unsafe_set a.heap_node j ni

let heap_less a i j =
  let ki = Ba.Array1.unsafe_get a.heap_key i in
  let kj = Ba.Array1.unsafe_get a.heap_key j in
  ki < kj
  || (ki = kj
     && Ba.Array1.unsafe_get a.heap_node i < Ba.Array1.unsafe_get a.heap_node j)

(* Push node [v] keyed by its current tentative distance (the snapshot
   the reference pushes as the tuple's first component). *)
let heap_push a v =
  let i = a.heap_len in
  Ba.Array1.unsafe_set a.heap_key i (Ba.Array1.unsafe_get a.dist v);
  Ba.Array1.unsafe_set a.heap_node i v;
  a.heap_len <- i + 1;
  let j = ref i in
  while !j > 0 && heap_less a !j ((!j - 1) / 2) do
    heap_swap a !j ((!j - 1) / 2);
    j := (!j - 1) / 2
  done

(* Pop the minimum node, or -1 on empty.  The popped key is not needed:
   on a node's first (settling) pop it equals [dist.(v)]. *)
let heap_pop a =
  if a.heap_len = 0 then -1
  else begin
    let v = Ba.Array1.unsafe_get a.heap_node 0 in
    let last = a.heap_len - 1 in
    heap_swap a 0 last;
    a.heap_len <- last;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let s = ref !i in
      if l < last && heap_less a l !s then s := l;
      if r < last && heap_less a r !s then s := r;
      if !s <> !i then begin
        heap_swap a !i !s;
        i := !s
      end
      else continue := false
    done;
    v
  end

(* Shortest-path tree from [src] into [dist]/[pred].

   [use_weights]: edge cost is [weights.(l) +. tie] (the FW marginal
   step); otherwise hop count 1.0 (the init/reachability step) — the
   same two weightings the reference feeds [Paths.shortest_tree].
   Replays the reference exactly: lazy deletion with a settled array,
   out-links relaxed in adjacency order, strict [nd < dist.(w)]. *)
let dijkstra a ~src ~use_weights ~tie =
  let n = a.n in
  for v = 0 to n - 1 do
    Ba.Array1.unsafe_set a.dist v infinity;
    Ba.Array1.unsafe_set a.pred v (-1);
    Ba.Array1.unsafe_set a.settled v 0
  done;
  a.heap_len <- 0;
  Ba.Array1.unsafe_set a.dist src 0.;
  heap_push a src;
  let v = ref (heap_pop a) in
  while !v >= 0 do
    if Ba.Array1.unsafe_get a.settled !v = 0 then begin
      Ba.Array1.unsafe_set a.settled !v 1;
      let d = Ba.Array1.unsafe_get a.dist !v in
      let lo = Ba.Array1.unsafe_get a.row_ptr !v in
      let hi = Ba.Array1.unsafe_get a.row_ptr (!v + 1) in
      for s = lo to hi - 1 do
        let w = Ba.Array1.unsafe_get a.adj_dst s in
        if Ba.Array1.unsafe_get a.settled w = 0 then begin
          let l = Ba.Array1.unsafe_get a.adj_link s in
          let c =
            if use_weights then Ba.Array1.unsafe_get a.weights l +. tie else 1.
          in
          let nd = d +. c in
          if nd < Ba.Array1.unsafe_get a.dist w then begin
            Ba.Array1.unsafe_set a.dist w nd;
            Ba.Array1.unsafe_set a.pred w l;
            heap_push a w
          end
        end
      done
    end;
    v := heap_pop a
  done

let reachable a ~dst = Ba.Array1.unsafe_get a.dist dst < infinity

(* Append a link to the path-incidence store at [slot], doubling the
   store if full (allocation happens only until the arena is warm). *)
let push_path_link a ~slot l =
  let cap = Ba.Array1.dim a.path_links in
  if slot >= cap then begin
    let bigger = ibuf (2 * cap) in
    Ba.Array1.blit a.path_links (Ba.Array1.sub bigger 0 cap);
    a.path_links <- bigger
  end;
  Ba.Array1.unsafe_set a.path_links slot l
