(* Dcn_check: certification, generators, differential oracle, shrinking,
   and the selfcheck hooks. *)

module Certify = Dcn_check.Certify
module Gen = Dcn_check.Gen
module Oracle = Dcn_check.Oracle
module Shrink = Dcn_check.Shrink
module Instance = Dcn_core.Instance
module Solution = Dcn_core.Solution
module Selfcheck = Dcn_core.Selfcheck
module Serialize = Dcn_core.Serialize
module Flow = Dcn_flow.Flow
module Schedule = Dcn_sched.Schedule
module Builders = Dcn_topology.Builders
module Model = Dcn_power.Model
module Prng = Dcn_util.Prng

let quick_fw =
  { Dcn_mcf.Frank_wolfe.default_config with max_iters = 40; gap_tol = 1e-3 }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus name =
  let inst =
    Serialize.instance_of_string (read_file ("corpus/" ^ name ^ ".instance"))
  in
  let sched =
    Serialize.schedule_of_string inst (read_file ("corpus/" ^ name ^ ".schedule"))
  in
  (inst, sched)

let small_instance () =
  let graph = Builders.line 3 in
  let power = Model.quadratic in
  let f0 = Flow.make ~id:0 ~src:0 ~dst:2 ~volume:4. ~release:0. ~deadline:2. in
  let f1 = Flow.make ~id:1 ~src:0 ~dst:1 ~volume:2. ~release:0. ~deadline:2. in
  Instance.make ~graph ~power ~flows:[ f0; f1 ]

let kinds vs = List.sort_uniq compare (List.map Certify.kind vs)

(* ------------------------------ certify ---------------------------- *)

let test_certify_clean_solutions () =
  let inst = small_instance () in
  let sp = Dcn_core.Baselines.sp_mcf inst in
  Alcotest.(check (list string)) "sp+mcf certifies" [] (kinds (Certify.solution inst sp));
  let rs =
    Dcn_core.Random_schedule.solve
      ~config:{ Dcn_core.Random_schedule.attempts = 5; fw_config = quick_fw }
      ~rng:(Prng.create 7) inst
  in
  Alcotest.(check (list string)) "rs certifies" [] (kinds (Certify.solution inst rs))

let test_certify_missing_flow () =
  let inst = small_instance () in
  let f0 = Option.get (Instance.find_flow_opt inst 0) in
  let plan =
    {
      Schedule.flow = f0;
      path = [ 0; 2 ];
      slots = [ { Schedule.start = 0.; stop = 2.; rate = 2. } ];
    }
  in
  let sched =
    Schedule.make ~graph:inst.Instance.graph ~power:inst.Instance.power
      ~horizon:(Instance.horizon inst) [ plan ]
  in
  Alcotest.(check (list string))
    "flow 1 unplanned" [ "missing_flow" ]
    (kinds (Certify.schedule inst sched));
  Alcotest.(check (list string))
    "partial allows it" []
    (kinds (Certify.schedule ~config:{ Certify.default with partial = true } inst sched))

let test_certify_energy_mismatch () =
  let inst = small_instance () in
  let sp = Dcn_core.Baselines.sp_mcf inst in
  let tampered = { sp with Solution.energy = sp.Solution.energy +. 10. } in
  Alcotest.(check bool)
    "tampered energy caught" true
    (List.mem "energy_mismatch" (kinds (Certify.solution inst tampered)))

let test_certify_lb_violation () =
  let inst = small_instance () in
  let sp = Dcn_core.Baselines.sp_mcf inst in
  let vs =
    Certify.solution ~lower_bound:(sp.Solution.energy *. 2.) inst sp
  in
  Alcotest.(check bool)
    "impossible LB flagged" true
    (List.mem "lb_violated" (kinds vs))

(* --------------------------- corpus replay ------------------------- *)

let expectations =
  [
    ("pass", []);
    ("volume", [ "volume_mismatch" ]);
    ("capacity", [ "capacity_exceeded" ]);
    ("window", [ "slot_outside_window" ]);
  ]

let test_corpus_replay () =
  List.iter
    (fun (name, expected) ->
      let inst, sched = corpus name in
      let got = kinds (Certify.schedule inst sched) in
      if expected = [] then
        Alcotest.(check (list string)) (name ^ " certifies") [] got
      else
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Printf.sprintf "%s yields %s (got: %s)" name k
                 (String.concat "," got))
              true (List.mem k got))
          expected)
    expectations

(* Truncated / malformed fixtures must come back as typed, positioned
   parse errors — never as an escaped exception. *)
let test_corpus_truncated () =
  let instance_error name =
    match
      Serialize.instance_of_string_result
        (read_file ("corpus/" ^ name ^ ".instance"))
    with
    | Ok _ -> Alcotest.failf "%s: parsed despite being malformed" name
    | Error e -> e
  in
  let e = instance_error "truncated-node" in
  Alcotest.(check int) "truncated-node line" 2 e.Serialize.line;
  Alcotest.(check int) "truncated-node position" 21 e.Serialize.position;
  let e = instance_error "truncated-flow" in
  Alcotest.(check int) "truncated-flow line" 6 e.Serialize.line;
  let e = instance_error "bad-window" in
  Alcotest.(check int) "bad-window line" 7 e.Serialize.line;
  (* The schedule parser likewise: a slot with a malformed rate. *)
  let inst, _ = corpus "pass" in
  (match
     Serialize.schedule_of_string_result inst
       (read_file "corpus/truncated-slot.schedule")
   with
  | Ok _ -> Alcotest.fail "truncated-slot: parsed despite being malformed"
  | Error e -> Alcotest.(check int) "truncated-slot line" 3 e.Serialize.line);
  (* Truncating a well-formed fixture at every prefix length must never
     raise — each prefix either parses or yields a typed error. *)
  let text = read_file "corpus/pass.instance" in
  for len = 0 to String.length text - 1 do
    ignore (Serialize.instance_of_string_result (String.sub text 0 len))
  done;
  (* The raising wrapper stays [Failure]-compatible. *)
  Alcotest.(check bool) "wrapper raises Failure" true
    (try
       ignore (Serialize.instance_of_string "dcnsched-instance v1\nnode x");
       false
     with Failure _ -> true)

let test_json_truncated () =
  let module Json = Dcn_engine.Json in
  let err s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "%S: parsed despite being malformed" s
    | Error e -> e
  in
  let e = err "{\"a\":1," in
  Alcotest.(check int) "object cut after comma" 7 e.Json.offset;
  let e = err "[1,2" in
  Alcotest.(check int) "list cut" 4 e.Json.offset;
  let e = err "\"unterminated" in
  Alcotest.(check bool) "string cut" true (e.Json.offset > 0);
  (* Every prefix of an emitted report parses or errors — never raises. *)
  let text =
    Json.to_string
      (Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.float nan ]); ("s", Json.Str "a\"b") ])
  in
  for len = 0 to String.length text do
    ignore (Json.parse (String.sub text 0 len))
  done;
  match Json.parse text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "full report failed: %s" (Json.parse_error_to_string e)

(* ------------------------------ shrink ----------------------------- *)

(* A predicate that certifies a deliberately under-delivering schedule
   for flow 0: transmit at half the required density over the whole
   window.  Any instance still containing flow 0 (and a route for it)
   keeps the violation. *)
let under_delivery_pred inst =
  match Instance.find_flow_opt inst 0 with
  | None -> false
  | Some f ->
    let path = Dcn_core.Baselines.shortest_path_routing inst 0 in
    let rate = f.Flow.volume /. (2. *. Flow.span_length f) in
    let plan =
      {
        Schedule.flow = f;
        path;
        slots = [ { Schedule.start = f.Flow.release; stop = f.Flow.deadline; rate } ];
      }
    in
    let sched =
      Schedule.make ~graph:inst.Instance.graph ~power:inst.Instance.power
        ~horizon:(Instance.horizon inst) [ plan ]
    in
    List.mem "volume_mismatch"
      (kinds (Certify.schedule ~config:{ Certify.default with partial = true } inst sched))

let test_shrink_corrupt_fixture () =
  let inst, _ = corpus "volume" in
  Alcotest.(check bool) "violates before" true (under_delivery_pred inst);
  let r = Shrink.minimize under_delivery_pred inst in
  let f0, c0 = Shrink.size inst in
  let f1, c1 = Shrink.size r.Shrink.instance in
  Alcotest.(check bool) "no more flows" true (f1 <= f0);
  Alcotest.(check bool) "no more cables" true (c1 <= c0);
  Alcotest.(check bool) "still violates" true (under_delivery_pred r.Shrink.instance);
  Alcotest.(check int) "second flow dropped" 1 f1;
  Alcotest.(check bool) "made progress" true (r.Shrink.steps <> [])

let test_shrink_noop_when_passing () =
  let inst, _ = corpus "pass" in
  let r = Shrink.minimize (fun _ -> false) inst in
  Alcotest.(check bool) "instance untouched" true (r.Shrink.instance == inst);
  Alcotest.(check (list string)) "no steps" []
    (List.map (fun (s : Shrink.step) -> s.Shrink.op) r.Shrink.steps)

let test_shrink_exception_is_false () =
  let inst, _ = corpus "pass" in
  (* The predicate throws on every candidate but holds on the input:
     minimization terminates with the input unchanged. *)
  let calls = ref 0 in
  let pred i =
    incr calls;
    if i == inst then true else failwith "boom"
  in
  let r = Shrink.minimize pred inst in
  Alcotest.(check (list string)) "no steps" []
    (List.map (fun (s : Shrink.step) -> s.Shrink.op) r.Shrink.steps);
  Alcotest.(check bool) "candidates were tried" true (!calls > 1)

let prop_shrink_no_larger =
  QCheck.Test.make ~name:"shrink: minimized no larger, predicate preserved"
    ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let case = Gen.(batch ~seed ~n:1).(0) in
      let inst = case.Gen.instance in
      QCheck.assume (Instance.num_flows inst >= 2);
      let pred i = Instance.num_flows i >= 2 in
      let r = Shrink.minimize pred inst in
      let f0, c0 = Shrink.size inst in
      let f1, c1 = Shrink.size r.Shrink.instance in
      pred r.Shrink.instance && f1 <= f0 && c1 <= c0 && f1 = 2)

(* --------------------------- gen / oracle -------------------------- *)

let test_gen_deterministic () =
  let a = Gen.batch ~seed:5 ~n:6 and b = Gen.batch ~seed:5 ~n:6 in
  Array.iter2
    (fun (x : Gen.case) (y : Gen.case) ->
      Alcotest.(check string) "label" x.Gen.label y.Gen.label;
      Alcotest.(check int) "solver_seed" x.Gen.solver_seed y.Gen.solver_seed;
      Alcotest.(check string) "instance"
        (Serialize.instance_to_string x.Gen.instance)
        (Serialize.instance_to_string y.Gen.instance))
    a b;
  let c = Gen.batch ~seed:6 ~n:6 in
  Alcotest.(check bool) "different seed, different batch" true
    (Array.exists2
       (fun (x : Gen.case) (y : Gen.case) ->
         Serialize.instance_to_string x.Gen.instance
         <> Serialize.instance_to_string y.Gen.instance)
       a c)

let test_oracle_certifies_batch () =
  let reports = Oracle.run_batch (Gen.batch ~seed:7 ~n:5) in
  Array.iteri
    (fun i o ->
      Alcotest.(check (list string))
        (Printf.sprintf "case %d (%s)" i o.Oracle.label)
        [] (Oracle.violation_kinds o))
    reports

let test_oracle_flags_divergence () =
  (* The oracle itself must not be blind: a corrupted certificate input
     shows up through `ok` and `violation_kinds`. *)
  let inst = small_instance () in
  let o = Oracle.run ~solver_seed:3 ~label:"small" inst in
  Alcotest.(check bool) "clean instance ok" true (Oracle.ok o);
  Alcotest.(check (list string)) "no kinds" [] (Oracle.violation_kinds o);
  Alcotest.(check bool) "lower bound positive" true (o.Oracle.lower_bound > 0.)

(* ------------------------- kernel engine --------------------------- *)

(* The per-interval fractional link loads implied by a relaxation: the
   sum of weighted-path weights over the paths crossing each link. *)
let interval_loads (r : Dcn_core.Relaxation.t) =
  Array.map
    (fun (i : Dcn_core.Relaxation.interval_solution) ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (_, paths) ->
          List.iter
            (fun (wp : Dcn_mcf.Decompose.weighted_path) ->
              List.iter
                (fun link ->
                  let prev = try Hashtbl.find tbl link with Not_found -> 0. in
                  Hashtbl.replace tbl link (prev +. wp.Dcn_mcf.Decompose.weight))
                wp.Dcn_mcf.Decompose.links)
            paths)
        i.Dcn_core.Relaxation.flow_paths;
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))
    r.Dcn_core.Relaxation.intervals

let close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* The flat-kernel Frank-Wolfe engine must reproduce the reference
   engine on generator instances — energy and per-link loads within
   1e-9 (they are in fact bit-identical; see check_kernel.exe) — and
   the agreement must hold on a 1-job and a 4-job pool alike. *)
let prop_kernel_matches_reference =
  QCheck.Test.make
    ~name:"kernel FW = reference FW (energy + per-link loads, jobs 1 and 4)"
    ~count:6
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let inst = Gen.(batch ~seed ~n:1).(0).Gen.instance in
      let reference_fw = { quick_fw with Dcn_mcf.Frank_wolfe.engine = Dcn_mcf.Frank_wolfe.Reference } in
      List.for_all
        (fun jobs ->
          Dcn_engine.Pool.with_pool ~jobs (fun pool ->
              let k = Dcn_core.Relaxation.solve ~pool ~fw_config:quick_fw inst in
              let r = Dcn_core.Relaxation.solve ~pool ~fw_config:reference_fw inst in
              let lk = interval_loads k and lr = interval_loads r in
              close k.Dcn_core.Relaxation.cost r.Dcn_core.Relaxation.cost
              && Array.length lk = Array.length lr
              && Array.for_all2
                   (fun a b ->
                     List.length a = List.length b
                     && List.for_all2
                          (fun (la, xa) (lb, xb) -> la = lb && close xa xb)
                          a b)
                   lk lr))
        [ 1; 4 ])

(* ----------------------------- selfcheck --------------------------- *)

let test_selfcheck_hooks () =
  Fun.protect ~finally:Selfcheck.clear @@ fun () ->
  Alcotest.(check bool) "disabled by default" false (Selfcheck.enabled ());
  Certify.install_selfcheck ();
  Alcotest.(check bool) "installed" true (Selfcheck.enabled ());
  (* A clean solver run passes through the hook silently. *)
  let inst = small_instance () in
  let _sp = Dcn_core.Baselines.sp_mcf inst in
  (* A corrupted schedule pushed through the hook raises. *)
  let vinst, vsched = corpus "volume" in
  Alcotest.(check bool) "corrupt schedule raises" true
    (try
       Selfcheck.schedule ~label:"corpus" ~partial:false vinst vsched;
       false
     with Failure m -> String.length m > 0);
  (* [without] suppresses the hook. *)
  Selfcheck.without (fun () ->
      Selfcheck.schedule ~label:"corpus" ~partial:false vinst vsched)

let suite =
  [
    ( "check",
      [
        Alcotest.test_case "certify clean solutions" `Quick test_certify_clean_solutions;
        Alcotest.test_case "certify missing flow" `Quick test_certify_missing_flow;
        Alcotest.test_case "certify energy mismatch" `Quick test_certify_energy_mismatch;
        Alcotest.test_case "certify LB violation" `Quick test_certify_lb_violation;
        Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
        Alcotest.test_case "corpus truncated fixtures" `Quick test_corpus_truncated;
        Alcotest.test_case "json truncated input" `Quick test_json_truncated;
        Alcotest.test_case "shrink corrupt fixture" `Quick test_shrink_corrupt_fixture;
        Alcotest.test_case "shrink no-op when passing" `Quick test_shrink_noop_when_passing;
        Alcotest.test_case "shrink exception is false" `Quick test_shrink_exception_is_false;
        QCheck_alcotest.to_alcotest prop_shrink_no_larger;
        Alcotest.test_case "gen deterministic" `Quick test_gen_deterministic;
        Alcotest.test_case "oracle certifies batch" `Quick test_oracle_certifies_batch;
        Alcotest.test_case "oracle on the small instance" `Quick test_oracle_flags_divergence;
        QCheck_alcotest.to_alcotest prop_kernel_matches_reference;
        Alcotest.test_case "selfcheck hooks" `Quick test_selfcheck_hooks;
      ] );
  ]
