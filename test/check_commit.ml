(* Allocation budget of a session's commit-path bookkeeping (the
   @check-commit alias).

   Rebuilds the steady-100 serving state: servebench's seeded generator
   (workload.ml, copied in by test/dune, so the event sequence is the
   benchmark's own) drives an in-process session in closed loop for 600
   events at seed 5 on fat-tree k=4, about 100 committed flows.  Then it
   counts the minor-heap words of each per-epoch pass over the committed
   set, and of the incremental update a session makes instead of the
   full certification, energy and delta (the last epoch that changed
   the schedule), and of encoding one checkpoint's snapshot, and checks
   them, the snapshot's size in bytes and the Frank-Wolfe Dijkstras'
   heap pops per apply against fixed budgets.  Minor words and pops
   are a pure function of the code and the event sequence, so unlike
   wall time the budget is exact on every host.

   Usage: check_commit.exe [--print]
   Exits 0 when every count is within its budget, 1 otherwise. *)

module Session = Dcn_serve.Session
module Schedule = Dcn_sched.Schedule
module Schedule_delta = Dcn_sched.Schedule_delta
module Certify = Dcn_check.Certify
module Link_state = Dcn_sched.Link_state
module Relaxation = Dcn_core.Relaxation
module Instance = Dcn_core.Instance

let seed = 5
let events = 600
let warm = 100

(* Budgets: the words this implementation measures plus about 25%
   headroom.  The list-scanning passes they replaced allocated 2.4x
   (re-solve) to 15x (fluid replay) as much; the delta's words hardly
   moved, since its cost was comparisons rather than allocation.
   EXPERIMENTS.md E20 has the before/after table.  A session no longer
   runs the first, third and fourth passes on every epoch: it updates
   its kept certificate (the incremental row, 15,221 of whose words are
   the full fluid replay it still runs), which took apply's mean from
   145,059 to 91,728 words (E21).  A checkpoint encodes the whole
   session: [Json.to_string] of the snapshot tree took 573,398 minor
   words (656,230 counted with the major heap) for a 234,019-byte
   body; the path-table encoding written straight into a buffer takes
   54,330 for 122,449 bytes (E22).  Its size gets a budget in bytes.
   The re-solve's Dijkstras popped 8,506 heap entries per apply
   when every host went through the heap and every tree ran to
   completion; settling hosts on first reach and stopping once a
   source's destinations are final pops 4,538 (E23).  Starting a new
   flow from the paths it got in the interval re-solved just before,
   instead of from its hop-count path, pops 1,575, held at 2,000 (E24),
   which the 4,538 of the cold start fails. *)
let budgets =
  [
    ("Certify.schedule", 59_600.);
    ("Fluid.run", 19_000.);
    ("Schedule.energy", 30_800.);
    ("Schedule_delta.diff", 1_550.);
    ("resolve, nothing dirty", 21_600.);
    ("incremental certify+energy+delta", 23_500.);
    ("apply, mean over events 101-600", 114_700.);
    ("Session.snapshot", 68_000.);
    ("Session.snapshot body", 153_000.);
    ("heap pops per apply, events 101-600", 2_000.);
  ]

(* [f ()] and the minor words it allocated. *)
let counted f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

let () =
  let print = Array.exists (( = ) "--print") Sys.argv in
  let spec = Workload.steady_100 in
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let power = Dcn_power.Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap:spec.cap () in
  let session = Session.create ~graph ~power ~policy:spec.policy ~seed () in
  let gen = Workload.create spec ~graph ~seed in
  let apply_words = ref 0. and before = ref None and change = ref None in
  let pops () = Dcn_mcf.Kernel.Workspace.heap_pops (Session.workspace session) in
  let warm_pops = ref 0 in
  for i = 1 to events do
    let event = Workload.next gen in
    let prior = Session.schedule session in
    if i = events then before := prior;
    let outcome, cost = counted (fun () -> Session.apply session event) in
    if i = warm then warm_pops := pops ();
    if i > warm then apply_words := !apply_words +. cost;
    (match (prior, Session.schedule session) with
    | Some b, Some a when b != a -> change := Some (b, a)
    | _ -> ());
    Workload.observe gen event (Session.outcome_to_json outcome)
  done;
  let apply_pops = pops () - !warm_pops in
  let sched = Option.get (Session.schedule session) in
  let flows = Session.active_flows session in
  let inst = Instance.make ~graph ~power ~flows in
  let relax = Relaxation.solve ~fw_config:Dcn_mcf.Frank_wolfe.resolve_config inst in
  let _, t1 = Instance.horizon inst in
  let outside = (t1 +. 1., t1 +. 2.) in
  let resolve () =
    let r, stats = Relaxation.resolve ~fw_config:Dcn_mcf.Frank_wolfe.resolve_config ~previous:relax ~window:outside inst in
    if stats.Relaxation.resolved <> 0 then failwith "an interval outside the window was re-solved";
    r
  in
  (* One warm-up call each, so lazily built tables are not counted. *)
  let measure f =
    ignore (f ());
    snd (counted f)
  in
  (* The last schedule change, made on a certificate of the schedule
     before it whose links are all swept and profiled; only the update
     is counted. *)
  let incremental () =
    let b, a = Option.get !change in
    let inst_of (s : Schedule.t) =
      Instance.make ~graph ~power ~flows:(List.map (fun (p : Schedule.plan) -> p.flow) s.plans)
    in
    let st = Certify.state ~links:(Dcn_topology.Graph.num_links graph) power in
    Certify.update st (inst_of b) ~added:b.plans ~removed:[];
    ignore (Certify.check st (inst_of b) b);
    ignore (Link_state.energy (Certify.links st) ~horizon:b.horizon);
    let inst = inst_of a in
    let d = Schedule_delta.diff ~before:(Some b) ~after:(Some a) in
    snd
      (counted (fun () ->
           ignore (Schedule_delta.of_changes ~horizon:(Some a.horizon) ~added:d.added ~removed:d.removed);
           Certify.update st inst ~added:d.added
             ~removed:(List.map (fun (p : Schedule.plan) -> p.flow.id) d.removed);
           let energy = Link_state.energy (Certify.links st) ~horizon:a.horizon in
           Certify.check ~reported_energy:energy st inst a))
  in
  let words = List.map (fun (name, got) -> (name, got, "words")) in
  let counts =
    words
    [
      ("Certify.schedule", measure (fun () -> Certify.schedule inst sched));
      ("Fluid.run", measure (fun () -> Dcn_sim.Fluid.run sched));
      ("Schedule.energy", measure (fun () -> Schedule.energy sched));
      ( "Schedule_delta.diff",
        measure (fun () -> Schedule_delta.diff ~before:!before ~after:(Some sched)) );
      ("resolve, nothing dirty", measure resolve);
      ("incremental certify+energy+delta", (ignore (incremental ()); incremental ()));
      ("apply, mean over events 101-600", !apply_words /. float_of_int (events - warm));
      ("Session.snapshot", measure (fun () -> Session.snapshot session));
    ]
    @ [
        ("Session.snapshot body", float_of_int (String.length (Session.snapshot session)), "bytes");
        ( "heap pops per apply, events 101-600",
          float_of_int apply_pops /. float_of_int (events - warm),
          "pops" );
      ]
  in
  Printf.printf "check_commit: steady-100 seed %d after %d events: %d committed flows, %d intervals\n"
    seed events (List.length flows)
    (Array.length relax.Relaxation.intervals);
  let failed = ref false in
  List.iter
    (fun (name, got, unit) ->
      let budget = List.assoc name budgets in
      let ok = got <= budget in
      if not ok then failed := true;
      if print || not ok then
        Printf.printf "check_commit: %-34s %9.0f %s (budget %.0f)%s\n" name got unit budget
          (if ok then "" else "  OVER BUDGET"))
    counts;
  if !failed then exit 1
  else Printf.printf "check_commit: all %d counts within budget\n" (List.length counts)
