(* Dcn_engine.Trace and Json: the observability layer's contracts —
   disabled traces are silent, span trees stay well-formed (also under
   exceptions and across worker domains), parallel emission loses
   nothing, and tracing does not perturb solver results. *)

module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json
module Pool = Dcn_engine.Pool
module Prng = Dcn_util.Prng

exception Boom

(* --- disabled trace ------------------------------------------------- *)

let test_disabled_is_silent () =
  let t = Trace.create () in
  Alcotest.(check bool) "off" false (Trace.on ());
  Trace.event "ignored";
  Trace.counter "ignored" 1.;
  let v = Trace.span "ignored" (fun () -> 41 + 1) in
  Alcotest.(check int) "span is transparent" 42 v;
  Alcotest.(check int) "nothing recorded" 0 (Trace.length t)

(* --- span nesting --------------------------------------------------- *)

let spans_balanced records =
  (* Every open is closed exactly once, and closes come after opens. *)
  let open_seq = Hashtbl.create 8 and close_seq = Hashtbl.create 8 in
  List.iter
    (fun (r : Trace.record) ->
      match r.entry with
      | Trace.Span_open { id; _ } -> Hashtbl.replace open_seq id r.seq
      | Trace.Span_close { id } -> Hashtbl.replace close_seq id r.seq
      | _ -> ())
    records;
  Hashtbl.length open_seq = Hashtbl.length close_seq
  && Hashtbl.fold
       (fun id o acc ->
         acc
         && match Hashtbl.find_opt close_seq id with
            | Some c -> c > o
            | None -> false)
       open_seq true

let test_span_nesting () =
  let t = Trace.create () in
  Trace.with_trace t (fun () ->
      Trace.span "outer" (fun () ->
          Trace.event "in-outer";
          Trace.span "inner" (fun () -> Trace.event "in-inner")));
  let records = Trace.records t in
  let find_open name =
    List.find_map
      (fun (r : Trace.record) ->
        match r.entry with
        | Trace.Span_open { id; parent; name = n; _ } when n = name ->
          Some (id, parent)
        | _ -> None)
      records
  in
  let outer_id, outer_parent = Option.get (find_open "outer") in
  let _, inner_parent = Option.get (find_open "inner") in
  Alcotest.(check (option int)) "outer is a root" None outer_parent;
  Alcotest.(check (option int)) "inner nests under outer" (Some outer_id) inner_parent;
  let event_span name =
    List.find_map
      (fun (r : Trace.record) ->
        match r.entry with
        | Trace.Event { span; name = n; _ } when n = name -> Some span
        | _ -> None)
      records
  in
  Alcotest.(check (option (option int)))
    "event attributed to innermost span" (Some (Some outer_id))
    (event_span "in-outer");
  Alcotest.(check bool) "balanced" true (spans_balanced records)

let test_span_closes_on_exception () =
  let t = Trace.create () in
  (try Trace.with_trace t (fun () -> Trace.span "doomed" (fun () -> raise Boom))
   with Boom -> ());
  Alcotest.(check bool) "balanced after raise" true (spans_balanced (Trace.records t));
  (* The per-domain stack is clean: a following span is again a root. *)
  Trace.with_trace t (fun () -> Trace.span "after" (fun () -> ()));
  let after_parent =
    List.find_map
      (fun (r : Trace.record) ->
        match r.entry with
        | Trace.Span_open { parent; name = "after"; _ } -> Some parent
        | _ -> None)
      (Trace.records t)
  in
  Alcotest.(check (option (option int))) "stack popped" (Some None) after_parent

(* --- parallel emission ---------------------------------------------- *)

let test_parallel_no_loss () =
  let n = 64 in
  let t = Trace.create () in
  Trace.with_trace t (fun () ->
      Pool.with_pool ~jobs:4 (fun pool ->
          ignore
            (Pool.map pool
               (fun i ->
                 Trace.event "work" ~fields:[ ("index", Json.Int i) ];
                 i)
               (Array.init n Fun.id))));
  let records = Trace.records t in
  let indices =
    List.filter_map
      (fun (r : Trace.record) ->
        match r.entry with
        | Trace.Event { name = "work"; fields; _ } ->
          List.assoc_opt "index" fields
        | _ -> None)
      records
  in
  Alcotest.(check int) "one event per task" n (List.length indices);
  Alcotest.(check bool) "every index present once" true
    (List.sort compare indices = List.init n (fun i -> Json.Int i));
  (* Sequence numbers are unique, and timestamps never go backwards on
     any single domain. *)
  let seqs = List.map (fun (r : Trace.record) -> r.seq) records in
  Alcotest.(check bool) "seqs unique" true
    (List.length (List.sort_uniq compare seqs) = List.length seqs);
  let last = Hashtbl.create 8 in
  Alcotest.(check bool) "time monotone per domain" true
    (List.for_all
       (fun (r : Trace.record) ->
         let ok =
           match Hashtbl.find_opt last r.domain with
           | Some prev -> Int64.compare r.time_ns prev >= 0
           | None -> true
         in
         Hashtbl.replace last r.domain r.time_ns;
         ok)
       records)

(* Tracing must not change what solvers compute: the pool's
   jobs-invariance contract holds with a collector installed, and the
   traced energy equals the untraced one. *)
let test_jobs_invariance_under_tracing () =
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let rng () = Prng.create 77 in
  let flows = Dcn_flow.Workload.paper_random ~rng:(rng ()) ~graph ~n:10 () in
  let inst =
    Dcn_core.Instance.make ~graph ~power:Dcn_power.Model.quadratic ~flows
  in
  let config =
    {
      Dcn_core.Random_schedule.attempts = 4;
      fw_config =
        { Dcn_mcf.Frank_wolfe.default_config with max_iters = 30 };
    }
  in
  let solve ~jobs ~traced =
    Pool.with_pool ~jobs (fun pool ->
        let run () =
          (* Workload PRNG state is consumed above; the solver gets its
             own fresh stream so runs are comparable. *)
          (Dcn_core.Random_schedule.solve ~config ~pool ~rng:(rng ()) inst)
            .Dcn_core.Solution.energy
        in
        if traced then (
          let t = Trace.create () in
          let e = Trace.with_trace t run in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d traced solver emitted" jobs)
            true
            (Trace.length t > 0);
          e)
        else run ())
  in
  let baseline = solve ~jobs:1 ~traced:false in
  List.iter
    (fun jobs ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "jobs=%d traced = untraced jobs=1" jobs)
        baseline
        (solve ~jobs ~traced:true))
    [ 1; 2; 4 ]

(* --- counters -------------------------------------------------------- *)

let test_counters_accumulate () =
  let t = Trace.create () in
  Trace.with_trace t (fun () ->
      Trace.counter "hits" 2.;
      Trace.counter "hits" 3.;
      Trace.counter "misses" 1.);
  Alcotest.(check (float 0.)) "hits" 5. (Trace.counter_total t "hits");
  Alcotest.(check (float 0.)) "misses" 1. (Trace.counter_total t "misses");
  Alcotest.(check (float 0.)) "absent" 0. (Trace.counter_total t "nope");
  match Json.member "counters" (Trace.to_json t) with
  | Some (Json.Obj kvs) ->
    Alcotest.(check (list string)) "counter names" [ "hits"; "misses" ]
      (List.sort compare (List.map fst kvs))
  | _ -> Alcotest.fail "counters object missing"

(* --- JSON ------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 0.1);
        ("s", Json.Str "line\nbreak \"quoted\" \\ slash");
        ("l", Json.List [ Json.Int 1; Json.Str "two"; Json.Float 3.5 ]);
      ]
  in
  Alcotest.(check bool) "compact roundtrip" true
    (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "pretty roundtrip" true
    (Json.of_string (Json.to_string ~pretty:true v) = v);
  (* Integral floats print without a decimal point (still valid JSON)
     and reparse as ints — the documented collapse. *)
  Alcotest.(check bool) "integral float collapses to int" true
    (Json.of_string (Json.to_string (Json.Float 3.)) = Json.Int 3)

let test_json_non_finite () =
  Alcotest.(check string) "inf" {|"inf"|} (Json.to_string (Json.float infinity));
  Alcotest.(check string) "-inf" {|"-inf"|} (Json.to_string (Json.float neg_infinity));
  Alcotest.(check string) "nan" {|"nan"|} (Json.to_string (Json.float nan));
  Alcotest.(check (float 0.)) "to_float reads it back" infinity
    (Json.to_float (Json.of_string {|"inf"|}))

(* [Json.float_literal] calls the C primitive behind [Printf]'s float
   conversions directly; it must print exactly what [Printf] does, on
   every bit pattern (subnormals, the extremes, signed zero, integral
   values past 1e17 that print with an exponent). *)
let prop_float_literal_is_printf =
  let specials =
    [ 0.; -0.; 1.; -1.; 0.1; max_float; -.max_float; min_float; -.min_float;
      Float.succ 0.; Float.pred min_float; 1e17; -1e17; 1e22; 123456789012345678.;
      Float.epsilon; infinity; neg_infinity; nan ]
  in
  let gen =
    QCheck.Gen.(
      frequency
        [
          (1, oneofl specials);
          (4, map Int64.float_of_bits ui64);
          (2, float);
          (* integral, of magnitude >= 2^57 > 1e17 (or infinite) *)
          ( 2,
            map
              (fun (m, e) -> Float.ldexp (float_of_int m) e)
              (pair (int_range 1 (1 lsl 40)) (int_range 57 1000)) );
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"float_literal = Printf %.17g"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun x ->
      let b = Buffer.create 32 in
      Json.float_literal b x;
      Buffer.contents b
      = if Float.is_finite x then Printf.sprintf "%.17g" x
        else Json.to_string (Json.float x))

let test_json_rejects_garbage () =
  let rejects s =
    Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true
      (try ignore (Json.of_string s); false with Failure _ -> true)
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\":1} trailing";
  rejects "'single'"

let test_trace_to_json_parses () =
  let t = Trace.create () in
  Trace.with_trace t (fun () ->
      Trace.span "s" ~fields:[ ("k", Json.Int 1) ] (fun () ->
          Trace.event "e" ~fields:[ ("v", Json.float 2.5) ];
          Trace.counter "c" 1.));
  let parsed = Json.of_string (Json.to_string (Trace.to_json t)) in
  Alcotest.(check bool) "version 1" true
    (Json.member "version" parsed = Some (Json.Int 1));
  let events = Json.to_list (Json.get "events" parsed) in
  Alcotest.(check int) "four records" 4 (List.length events);
  List.iter
    (fun e ->
      ignore (Json.to_int (Json.get "seq" e));
      ignore (Json.to_int (Json.get "t_ns" e));
      ignore (Json.to_int (Json.get "domain" e));
      ignore (Json.to_str (Json.get "type" e)))
    events

let suite =
  [
    ( "engine-trace",
      [
        Alcotest.test_case "disabled trace is silent" `Quick test_disabled_is_silent;
        Alcotest.test_case "span nesting and attribution" `Quick test_span_nesting;
        Alcotest.test_case "span closes on exception" `Quick test_span_closes_on_exception;
        Alcotest.test_case "parallel emission loses nothing" `Quick test_parallel_no_loss;
        Alcotest.test_case "jobs-invariance holds under tracing" `Quick
          test_jobs_invariance_under_tracing;
        Alcotest.test_case "counters accumulate" `Quick test_counters_accumulate;
      ] );
    ( "engine-json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "non-finite floats as strings" `Quick test_json_non_finite;
        QCheck_alcotest.to_alcotest prop_float_literal_is_printf;
        Alcotest.test_case "rejects malformed input" `Quick test_json_rejects_garbage;
        Alcotest.test_case "trace JSON parses" `Quick test_trace_to_json_parses;
      ] );
  ]
