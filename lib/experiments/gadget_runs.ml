module Gadgets = Dcn_core.Gadgets
module Prng = Dcn_util.Prng
module Table = Dcn_util.Table
module Trace = Dcn_engine.Trace
module Json = Dcn_engine.Json

type three_partition_report = {
  m : int;
  b : int;
  closed_form : float;
  exact : float;
  rs : float;
  rs_feasible : bool;
  rs_over_opt : float;
}

let three_partition ?(seed = 3) ?(m = 2) ?(b = 20) ?(alpha = 2.) () =
  Trace.span "experiment.gadget.three_partition"
    ~fields:[ ("m", Json.Int m); ("b", Json.Int b) ]
  @@ fun () ->
  let rng = Prng.create seed in
  let tp = Gadgets.solvable_three_partition ~m ~b ~rng in
  (* m + 1 links keep the exact solver's path enumeration tractable
     while still allowing a wrong (energy-wasting) spread. *)
  let inst = Gadgets.three_partition_instance ~alpha ~links:(m + 1) tp in
  let closed_form = Gadgets.three_partition_opt_energy ~alpha tp in
  let exact = (Dcn_core.Exact.search ~max_combinations:100_000 inst).Dcn_core.Exact.energy in
  let rs =
    Dcn_core.Random_schedule.solve
      ~config:{ Dcn_core.Random_schedule.attempts = 50; fw_config = Fig2.experiment_fw_config }
      ~rng inst
  in
  {
    m = tp.Gadgets.m;
    b = tp.Gadgets.b;
    closed_form;
    exact;
    rs = rs.Dcn_core.Solution.energy;
    rs_feasible = rs.Dcn_core.Solution.feasible;
    rs_over_opt = rs.Dcn_core.Solution.energy /. closed_form;
  }

let render_three_partition r =
  let headers = [ "quantity"; "value" ] in
  let rows =
    [
      [ "m (subsets)"; string_of_int r.m ];
      [ "B (subset sum)"; string_of_int r.b ];
      [ "closed form m*alpha*mu*B^alpha"; Table.cell_f ~decimals:1 r.closed_form ];
      [ "exact optimum (enumeration)"; Table.cell_f ~decimals:1 r.exact ];
      [ "Random-Schedule"; Table.cell_f ~decimals:1 r.rs ];
      [ "RS feasible"; (if r.rs_feasible then "yes" else "NO") ];
      [ "RS / OPT"; Table.cell_f r.rs_over_opt ];
    ]
  in
  "Theorem 2 gadget (3-partition reduction, solvable instance)\n"
  ^ Table.render ~headers ~rows ()

type partition_report = {
  total : int;
  yes_energy : float;
  exact : float;
  inapprox_ratio : float;
}

let partition ?(alpha = 2.) ?(integers = [ 3; 4; 5; 3; 4; 5 ]) () =
  Trace.span "experiment.gadget.partition"
    ~fields:[ ("integers", Json.Int (List.length integers)) ]
  @@ fun () ->
  let p = Gadgets.make_partition ~integers in
  let inst = Gadgets.partition_instance ~alpha ~links:4 p in
  let exact = (Dcn_core.Exact.search ~max_combinations:100_000 inst).Dcn_core.Exact.energy in
  {
    total = p.Gadgets.total;
    yes_energy = Gadgets.partition_yes_energy ~alpha p;
    exact;
    inapprox_ratio = Gadgets.inapprox_ratio ~alpha;
  }

let render_partition r =
  let headers = [ "quantity"; "value" ] in
  let rows =
    [
      [ "sum of integers (B)"; string_of_int r.total ];
      [ "yes-instance energy 2(sigma + mu C^alpha)"; Table.cell_f ~decimals:1 r.yes_energy ];
      [ "exact optimum (enumeration)"; Table.cell_f ~decimals:1 r.exact ];
      [ "Theorem 3 inapprox ratio"; Table.cell_f r.inapprox_ratio ];
    ]
  in
  "Theorem 3 gadget (partition reduction, C = B/2)\n" ^ Table.render ~headers ~rows ()

let three_partition_to_json r =
  Json.Obj
    [
      ("m", Json.Int r.m);
      ("b", Json.Int r.b);
      ("closed_form", Json.float r.closed_form);
      ("exact", Json.float r.exact);
      ("rs", Json.float r.rs);
      ("rs_feasible", Json.Bool r.rs_feasible);
      ("rs_over_opt", Json.float r.rs_over_opt);
    ]

let partition_to_json r =
  Json.Obj
    [
      ("total", Json.Int r.total);
      ("yes_energy", Json.float r.yes_energy);
      ("exact", Json.float r.exact);
      ("inapprox_ratio", Json.float r.inapprox_ratio);
    ]
