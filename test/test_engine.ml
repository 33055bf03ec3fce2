(* Dcn_engine: the domain pool and its determinism contract. *)

module Pool = Dcn_engine.Pool
module Deadline = Dcn_engine.Deadline
module Prng = Dcn_util.Prng

exception Boom of int

let test_map_matches_sequential () =
  let input = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 7 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d" jobs)
            expected (Pool.map pool f input)))
    [ 1; 2; 4 ]

let test_map_list () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int))
        "map_list preserves order" [ 2; 4; 6; 8 ]
        (Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3; 4 ]))

let test_map_reduce_order () =
  (* String concatenation is not commutative: a deterministic in-order
     fold is observable. *)
  let input = Array.init 20 string_of_int in
  let expected = String.concat "," (Array.to_list input) in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let got =
            Pool.map_reduce pool ~map:Fun.id
              ~reduce:(fun acc s -> if acc = "" then s else acc ^ "," ^ s)
              ~init:"" input
          in
          Alcotest.(check string) (Printf.sprintf "jobs=%d" jobs) expected got))
    [ 1; 2; 4 ]

let test_exception_propagates_and_pool_survives () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* The lowest-index failure is the one re-raised. *)
      (match Pool.map pool (fun i -> if i >= 5 then raise (Boom i) else i)
               (Array.init 10 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest failing index" 5 i);
      (* The same pool keeps working afterwards. *)
      Alcotest.(check (array int))
        "pool reusable after error" [| 0; 1; 4; 9 |]
        (Pool.map pool (fun i -> i * i) (Array.init 4 Fun.id)))

let test_nested_map () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let got =
        Pool.map pool
          (fun i -> Array.fold_left ( + ) 0 (Pool.map pool (fun j -> i + j) [| 1; 2; 3 |]))
          (Array.init 6 Fun.id)
      in
      Alcotest.(check (array int))
        "nested map runs sequentially in the worker"
        (Array.init 6 (fun i -> (3 * i) + 6))
        got)

let test_split_rngs_deterministic () =
  let draws seed =
    let streams = Pool.split_rngs (Prng.create seed) 8 in
    Array.map (fun rng -> Prng.int rng 1_000_000) streams
  in
  Alcotest.(check (array int)) "same seed, same streams" (draws 7) (draws 7);
  Alcotest.(check bool) "streams differ across indices" true
    (Array.length (draws 7) = 8
    &&
    let d = draws 7 in
    Array.exists (fun x -> x <> d.(0)) d)

let test_default_jobs_env () =
  (* DCN_JOBS is read at call time. *)
  Unix.putenv "DCN_JOBS" "3";
  Alcotest.(check int) "DCN_JOBS=3" 3 (Pool.default_jobs ());
  Unix.putenv "DCN_JOBS" "nonsense";
  Alcotest.(check int) "unparsable -> 1" 1 (Pool.default_jobs ());
  Unix.putenv "DCN_JOBS" "0";
  Alcotest.(check bool) "0 -> one per core" true (Pool.default_jobs () >= 1);
  Unix.putenv "DCN_JOBS" ""

(* ------------------------------------------------------------------ *)
(* Solver determinism across pool sizes                               *)
(* ------------------------------------------------------------------ *)

let quick_fw =
  { Dcn_mcf.Frank_wolfe.default_config with max_iters = 40; gap_tol = 1e-3 }

let test_random_schedule_jobs_invariant () =
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let power = Dcn_power.Model.quadratic in
  let solve jobs =
    Pool.with_pool ~jobs (fun pool ->
        let rng = Prng.create 5 in
        let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:12 () in
        let inst = Dcn_core.Instance.make ~graph ~power ~flows in
        Dcn_core.Random_schedule.solve
          ~config:{ Dcn_core.Random_schedule.attempts = 20; fw_config = quick_fw }
          ~pool ~rng inst)
  in
  let base = solve 1 in
  List.iter
    (fun jobs ->
      let rs = solve jobs in
      Alcotest.(check (float 0.)) (Printf.sprintf "energy jobs=%d" jobs)
        base.Dcn_core.Solution.energy rs.Dcn_core.Solution.energy;
      Alcotest.(check bool) (Printf.sprintf "paths jobs=%d" jobs) true
        (Dcn_core.Solution.paths base = Dcn_core.Solution.paths rs);
      Alcotest.(check int) (Printf.sprintf "attempts jobs=%d" jobs)
        (Dcn_core.Solution.attempts_used base)
        (Dcn_core.Solution.attempts_used rs))
    [ 2; 4 ]

let test_fig2_jobs_invariant () =
  (* A trimmed Figure-2 sweep renders identically for every pool size:
     the acceptance criterion of the engine. *)
  let params =
    {
      (Dcn_experiments.Fig2.quick_params ~alpha:2.) with
      Dcn_experiments.Fig2.flow_counts = [ 10; 20 ];
      seeds = [ 1001; 1002 ];
    }
  in
  let render jobs =
    Pool.with_pool ~jobs (fun pool ->
        Dcn_experiments.Fig2.render (Dcn_experiments.Fig2.run ~pool params))
  in
  let base = render 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string) (Printf.sprintf "render jobs=%d" jobs) base
        (render jobs))
    [ 2; 4 ]

let test_fuzz_jobs_invariant () =
  (* The whole fuzz pipeline — generation, every solver, certification,
     cross checks, JSON — is bit-identical for every pool size
     (satellite of the Dcn_check subsystem). *)
  let cases = Dcn_check.Gen.batch ~seed:11 ~n:6 in
  let report jobs =
    Pool.with_pool ~jobs (fun pool ->
        Dcn_engine.Json.to_string
          (Dcn_check.Oracle.batch_to_json (Dcn_check.Oracle.run_batch ~pool cases)))
  in
  let base = report 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string) (Printf.sprintf "fuzz report jobs=%d" jobs) base
        (report jobs))
    [ 2; 4 ]

let test_rs_rejects_bad_attempts () =
  let graph = Dcn_topology.Builders.line 3 in
  let power = Dcn_power.Model.quadratic in
  let f = Dcn_flow.Flow.make ~id:1 ~src:0 ~dst:2 ~volume:6. ~release:2. ~deadline:4. in
  let inst = Dcn_core.Instance.make ~graph ~power ~flows:[ f ] in
  Alcotest.check_raises "attempts = 0 rejected"
    (Invalid_argument "Random_schedule.solve: attempts must be >= 1 (got 0)")
    (fun () ->
      ignore
        (Dcn_core.Random_schedule.solve
           ~config:{ Dcn_core.Random_schedule.attempts = 0; fw_config = quick_fw }
           ~rng:(Prng.create 1) inst))

(* ------------------------------------------------------------------ *)
(* Budgets reach solvers as the ambient deadline                      *)
(* ------------------------------------------------------------------ *)

let budget_instance () =
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let rng = Prng.create 3 in
  let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n:6 () in
  Dcn_core.Instance.make ~graph ~power:Dcn_power.Model.quadratic ~flows

let test_expired_budget_stops_rs () =
  (* A 0 ms budget has passed before the first poll: on either pool
     the solve surfaces [Expired] to the caller instead of answering. *)
  let inst = budget_instance () in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          match
            Deadline.with_budget ~ms:0. (fun () ->
                Dcn_core.Random_schedule.solve ~pool ~rng:(Prng.create 1) inst)
          with
          | _ -> Alcotest.failf "jobs=%d: solved past an expired budget" jobs
          | exception Deadline.Expired -> ()))
    [ 1; 4 ]

let test_map_reinstalls_ambient () =
  (* Ambient deadlines are domain-local: a task that a worker domain
     runs sees the caller's deadline only because [Pool.map] installs
     it around the task.  Each task sleeps so that, even on one CPU,
     the caller cannot drain the queue alone. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      Deadline.with_budget ~ms:600_000. (fun () ->
          let d = Option.get (Deadline.ambient ()) in
          let caller = (Domain.self () :> int) in
          let seen =
            Pool.map pool
              (fun _ ->
                Unix.sleepf 0.02;
                ((Domain.self () :> int), Deadline.ambient ()))
              (Array.make 8 ())
          in
          Alcotest.(check bool) "some task ran on a worker" true
            (Array.exists (fun (dom, _) -> dom <> caller) seen);
          Array.iteri
            (fun i (dom, amb) ->
              match amb with
              | Some d' when d' == d -> ()
              | Some _ -> Alcotest.failf "task %d (domain %d): another deadline" i dom
              | None -> Alcotest.failf "task %d (domain %d): no deadline" i dom)
            seen))

let suite =
  [
    ( "engine-pool",
      [
        Alcotest.test_case "map = sequential map" `Quick test_map_matches_sequential;
        Alcotest.test_case "map_list order" `Quick test_map_list;
        Alcotest.test_case "map_reduce in-order fold" `Quick test_map_reduce_order;
        Alcotest.test_case "exception propagation + reuse" `Quick
          test_exception_propagates_and_pool_survives;
        Alcotest.test_case "nested map" `Quick test_nested_map;
        Alcotest.test_case "split_rngs deterministic" `Quick
          test_split_rngs_deterministic;
        Alcotest.test_case "DCN_JOBS parsing" `Quick test_default_jobs_env;
      ] );
    ( "engine-determinism",
      [
        Alcotest.test_case "random-schedule invariant under jobs" `Slow
          test_random_schedule_jobs_invariant;
        Alcotest.test_case "figure-2 render invariant under jobs" `Slow
          test_fig2_jobs_invariant;
        Alcotest.test_case "fuzz oracle invariant under jobs" `Slow
          test_fuzz_jobs_invariant;
        Alcotest.test_case "attempts < 1 rejected" `Quick test_rs_rejects_bad_attempts;
      ] );
    ( "engine-deadline",
      [
        Alcotest.test_case "expired budget stops random-schedule" `Quick
          test_expired_budget_stops_rs;
        Alcotest.test_case "map re-installs the ambient deadline" `Quick
          test_map_reinstalls_ambient;
      ] );
  ]
