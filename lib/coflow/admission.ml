module Prng = Dcn_util.Prng
module Json = Dcn_engine.Json
module Instance = Dcn_core.Instance
module Solution = Dcn_core.Solution
module Greedy_ear = Dcn_core.Greedy_ear
module Random_schedule = Dcn_core.Random_schedule

type variant = Baseline | Energy_aware

let variant_name = function
  | Baseline -> "sigma-greedy"
  | Energy_aware -> "sigma-energy"

let variant_of_string = function
  | "sigma-greedy" | "baseline" -> Ok Baseline
  | "sigma-energy" | "energy" -> Ok Energy_aware
  | s ->
      Error
        (Printf.sprintf
           "unknown admission variant %S (expected sigma-greedy or \
            sigma-energy)" s)

(* The solver answering "does the group fit?", by name: the
   deterministic greedy ignores the decision's PRNG stream. *)
let solver_of_variant ?pool = function
  | Baseline -> (Greedy_ear.name, fun ~rng:_ inst -> Greedy_ear.solve inst)
  | Energy_aware ->
    (Random_schedule.name, fun ~rng inst -> Random_schedule.solve ?pool ~rng inst)

type decision = {
  coflow : int;
  label : string;
  admitted : bool;
  reason : string;
  slack : float;
}

type t = {
  variant : string;
  solver : string;
  order : int list;
  decisions : decision list;
  admitted : Coflow.t list;
  rejected : (Coflow.t * string) list;
  solution : Solution.t option;
  energy : float;
  completion_rate : float;
}

let run ?(seed = 0) ?pool ~variant ~graph ~power coflows =
  ignore (Coflow.flatten coflows);
  let solver, solve = solver_of_variant ?pool variant in
  let sigma = Coflow.sigma_order coflows in
  (* One PRNG stream per position in the sigma order: decision [i]'s
     randomness is a pure function of (seed, i), independent of how many
     draws earlier solves consumed. *)
  let streams =
    let root = Prng.create seed in
    Array.init (List.length sigma) (fun _ -> Prng.split root)
  in
  let admitted = ref [] (* reversed sigma order *) in
  let rejected = ref [] in
  let decisions = ref [] in
  let solution = ref None in
  List.iteri
    (fun i (c : Coflow.t) ->
      let candidate = List.rev (c :: !admitted) in
      let verdict =
        match
          Instance.make_result ~graph ~power ~flows:(Coflow.flatten candidate)
        with
        | Error e -> Error (Instance.error_to_string e)
        | Ok instance -> (
            match solve ~rng:streams.(i) instance with
            | sol when sol.Solution.feasible -> Ok sol
            | _ -> Error "no capacity-feasible schedule for the group"
            | exception Invalid_argument msg -> Error msg)
      in
      let slack = Coflow.slack c ~at:(Coflow.release c) in
      match verdict with
      | Ok sol ->
          admitted := c :: !admitted;
          solution := Some sol;
          decisions :=
            { coflow = c.Coflow.id; label = c.Coflow.label; admitted = true;
              reason = ""; slack }
            :: !decisions
      | Error reason ->
          rejected := (c, reason) :: !rejected;
          decisions :=
            { coflow = c.Coflow.id; label = c.Coflow.label; admitted = false;
              reason; slack }
            :: !decisions)
    sigma;
  let admitted = List.rev !admitted in
  let total = List.length sigma in
  {
    variant = variant_name variant;
    solver;
    order = List.map (fun (c : Coflow.t) -> c.Coflow.id) sigma;
    decisions = List.rev !decisions;
    admitted;
    rejected = List.rev !rejected;
    solution = !solution;
    energy =
      (match !solution with Some s -> s.Solution.energy | None -> 0.);
    completion_rate =
      (if total = 0 then 1.
       else float_of_int (List.length admitted) /. float_of_int total);
  }

let decision_to_json d =
  Json.Obj
    [
      ("coflow", Json.Int d.coflow);
      ("label", Json.Str d.label);
      ("admitted", Json.Bool d.admitted);
      ("reason", Json.Str d.reason);
      ("slack", Json.float d.slack);
    ]

let to_json t =
  Json.Obj
    [
      ("variant", Json.Str t.variant);
      ("solver", Json.Str t.solver);
      ("coflows", Json.Int (List.length t.order));
      ("order", Json.List (List.map (fun id -> Json.Int id) t.order));
      ("decisions", Json.List (List.map decision_to_json t.decisions));
      ( "admitted",
        Json.List
          (List.map (fun (c : Coflow.t) -> Json.Int c.Coflow.id) t.admitted) );
      ( "rejected",
        Json.List
          (List.map
             (fun ((c : Coflow.t), reason) ->
               Json.Obj
                 [ ("coflow", Json.Int c.Coflow.id); ("reason", Json.Str reason) ])
             t.rejected) );
      ("completion_rate", Json.float t.completion_rate);
      ("energy", Json.float t.energy);
      ("feasible", Json.Bool (match t.solution with
         | Some s -> s.Solution.feasible
         | None -> true));
    ]

let pareto_json results =
  Json.List
    (List.map
       (fun t ->
         Json.Obj
           [
             ("variant", Json.Str t.variant);
             ("solver", Json.Str t.solver);
             ("completion_rate", Json.float t.completion_rate);
             ("energy", Json.float t.energy);
             ("admitted", Json.Int (List.length t.admitted));
           ])
       results)
