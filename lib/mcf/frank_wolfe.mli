(** Convex-cost fractional multicommodity flow by Frank–Wolfe.

    Minimise [sum over links e of cost(x_e)] where
    [x_e = sum over commodities i of y_(i,e)] and each commodity routes
    its full demand fractionally from its source to its destination.
    The paper assumes an off-the-shelf convex-programming oracle for
    this (the F-MCF subproblem of Algorithm 2); OCaml has none, so this
    module implements Frank–Wolfe with two step rules, chosen by
    whether the caller gave a warm start.  An iteration linearises the
    cost at the current loads and finds each commodity's marginal-cost
    shortest path s (one Dijkstra per source).  Then:

    - {b No warm start at all} (every commodity starts on its hop-count
      path): the vanilla flow-deviation step.  Every commodity moves
      towards its s under one line search over the links whose load
      changes.
    - {b Any warm start}: pairwise Frank–Wolfe over path active sets
      (Lacoste-Julien & Jaggi, NeurIPS 2015).  Each commodity keeps the
      distinct weighted paths that carry its demand.  A Gauss–Seidel
      sweep over the commodities, in index order, moves weight from the
      commodity's costliest other active path v to s, pricing both at
      the loads the sweep has reached.  The amount moved is
      t * weight(v), with the line search summing only over the links
      in s but not v or in v but not s.  A path whose weight reaches 0
      leaves the set (a drop step).  The vanilla step only ever scales
      old paths down, so from a warm start it zigzags between them;
      pairwise steps converge linearly instead.  A commodity without a
      warm start in such a solve starts on its hop-count path; in a
      serving re-solve that is a new flow in the first interval
      re-solved for it, since [Relaxation.resolve] carries it into
      later intervals from the paths this solve finds.

    Both line searches are {!exact_step}: it root-finds the derivative
    of the cost along the step, in [0, 1].  From the hop-count start
    the vanilla step is the faster of the two (EXPERIMENTS E19), hence
    the two rules.

    Convergence is certified by the Frank–Wolfe duality gap
    [<grad cost(x), x - s>], an upper bound on the distance to the
    optimum of the convex objective, measured before each step; the
    solver stops when the gap falls below [gap_tol] relative to the
    current cost, or when a step moves no commodity.

    A finite per-link [capacity] is handled by a smooth quadratic
    penalty added to the objective (loads may exceed it slightly; the
    returned [max_overload] reports by how much). *)

type problem = {
  graph : Dcn_topology.Graph.t;
  commodities : Commodity.t array;
  cost : float -> float;  (** per-link cost of a load; convex, cost 0 = 0 *)
  cost_deriv : float -> float;  (** its derivative (right derivative at kinks) *)
  capacity : float;  (** per-link load bound; [infinity] to disable *)
}

type engine =
  | Kernel
      (** Flat-[Bigarray] kernels ({!Kernel}): arena-reused workspaces,
          cost arithmetic inlined, tens of minor-heap words per warm
          iteration (the [@check-kernel] alias bounds it at 128).
          Each link's pc and pc' are kept at its current load
          ([Kernel.arena]'s [costs] and [weights]): a pairwise sweep
          refreshes them on the links it moves, so after the first
          iteration the tie bias, the objective and the descent guard
          read them instead of evaluating the cost again, while a
          joint step, which moves every link, re-evaluates all [m]
          each iteration.  A cached value is exactly what the
          reference computes at that load, in the same link order.
          Requires a [piecewise] cost spec; falls back to [Reference]
          without one. *)
  | Reference
      (** The boxed solver, kept as semantic ground truth: the kernel
          replays exactly its float operations, so both engines agree
          bit-for-bit (asserted by [Dcn_check.Oracle] and the
          [@check-kernel] alias). *)

type config = {
  max_iters : int;  (** default 200 *)
  gap_tol : float;  (** relative duality-gap target, default 1e-4 *)
  engine : engine;  (** default [Kernel] *)
}
(** Solver settings.  The line search has no setting: it is exact up to
    fixed tolerances (see {!exact_step}). *)

val default_config : config

val resolve_config : config
(** The budget of an interval re-solve: 60 iterations, relative gap
    1e-3.  Serving sessions, schedule repair, the watchdog and the
    differential oracle all solve with it. *)

val penalty : float
(** The capacity-penalty coefficient, 1e3: the objective adds
    [penalty * overload^2] per link. *)

type piecewise = {
  threshold : float;  (** [r_hat]: the envelope's linear/curved kink *)
  slope : float;  (** envelope slope below the threshold *)
  sigma : float;
  mu : float;
  alpha : float;
}
(** The power model's lower convex envelope in closed form, so the
    kernel engine can inline the cost arithmetic instead of calling the
    [cost]/[cost_deriv] closures (a closure call boxes its float
    argument and result — death by allocation in the hot loop).  Must
    describe the same function as the problem's closures; [Relaxation]
    builds it from [Dcn_power.Model], and the kernel evaluates it with
    the model's expression trees, including its rule for [alpha = 2]:
    [mu *. (x *. x)] and [alpha *. mu *. x], where other exponents go
    through [**].  The penalty-free [cost] of the kernel's solution is
    summed from the same closed form. *)

val exact_step : (float -> float) -> float
(** [exact_step deriv] minimises a convex function on [[0, 1]] given
    its derivative [deriv]: 0 if [deriv 0. >= 0.] (no descent), 1 if
    [deriv 1. <= 0.] (the full step), otherwise the root of [deriv]
    by Illinois regula falsi, stopped once [|deriv t| <= 1e-12 *
    |deriv 0.|], the bracket is at most [1e-12] wide, or 64 derivative
    evaluations are spent.  The one line search of both engines and of
    [Joint_relaxation]; callers still apply a descent guard, since a
    stopped search only approximates the root. *)

type solution = {
  flows : float array array;  (** [flows.(i).(e)]: commodity i's flow on link e *)
  loads : float array;  (** per-link total load *)
  cost : float;  (** [sum cost(load)], penalty excluded *)
  gap : float;  (** final absolute duality gap of the penalised objective *)
  iterations : int;
  max_overload : float;  (** [max over links of (load - capacity)], <= 0 if respected *)
}

val solve :
  ?config:config ->
  ?warm_start:(int -> Decompose.weighted_path list) ->
  ?workspace:Kernel.Workspace.t ->
  ?piecewise:piecewise ->
  problem ->
  solution
(** [warm_start i] supplies an initial fractional routing for commodity
    [i] as weighted paths (e.g. the decomposition of a previous solve of
    a nearby problem); weights are rescaled so they sum to the
    commodity's demand, which keeps flow conservation by construction,
    and paths with identical link lists merge into one active path.
    An empty list (the default) falls back to the cold start: the
    hop-count shortest path.  Warm starts change only the starting
    point, never the optimum the method converges to — they buy
    iterations, not correctness.

    With [engine = Kernel] and a [piecewise] spec, the solve runs on the
    flat kernels using [workspace]'s arenas (the process-wide
    {!Kernel.Workspace.default} if none is threaded).  Otherwise the
    reference implementation runs.  Both produce bit-identical
    solutions.

    @raise Invalid_argument if the commodity array is empty, if some
    commodity's [index] is not its array position, or if some
    commodity's destination is unreachable from its source. *)

val solve_reference :
  ?config:config ->
  ?warm_start:(int -> Decompose.weighted_path list) ->
  problem ->
  solution
(** {!solve} on the boxed reference engine, regardless of
    [config.engine].  The differential harnesses compare this against
    {!solve}. *)

val lower_bound_cost : problem -> solution -> float
(** A certified lower bound on the optimal objective from Frank–Wolfe
    duality: [cost(x) - gap_absolute].  Clamped at 0. *)
