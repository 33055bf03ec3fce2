module Prng = Dcn_util.Prng
module Table = Dcn_util.Table

type row = {
  n : int;
  lambda : float;
  measured : float;
  theorem3_floor : float;
  theorem6_term : float;
}

let run ?(alpha = 2.) ?(seed = 5) ~ns () =
  let graph = Dcn_topology.Builders.fat_tree 4 in
  let power = Dcn_power.Model.make ~sigma:0. ~mu:1. ~alpha () in
  List.map
    (fun n ->
      let rng = Prng.create (seed + n) in
      let flows = Dcn_flow.Workload.paper_random ~rng ~graph ~n () in
      let inst = Dcn_core.Instance.make ~graph ~power ~flows in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:{ Dcn_core.Random_schedule.attempts = 20; fw_config = Fig2.experiment_fw_config }
          ~rng inst
      in
      let lb =
        (Dcn_core.Lower_bound.of_relaxation
           (Option.get (Dcn_core.Solution.relaxation rs)))
          .Dcn_core.Lower_bound.value
      in
      let bounds = Dcn_core.Bounds.compute inst in
      {
        n;
        lambda = bounds.Dcn_core.Bounds.lambda;
        measured = rs.Dcn_core.Solution.energy /. lb;
        theorem3_floor = bounds.Dcn_core.Bounds.theorem3;
        theorem6_term = bounds.Dcn_core.Bounds.theorem6;
      })
    ns

let render rows =
  let headers = [ "flows"; "lambda"; "Thm 3 floor"; "measured RS/LB"; "Thm 6 term" ] in
  let row r =
    [
      string_of_int r.n;
      Table.cell_f ~decimals:1 r.lambda;
      Table.cell_f r.theorem3_floor;
      Table.cell_f r.measured;
      Printf.sprintf "%.3g" r.theorem6_term;
    ]
  in
  "Worst-case bounds vs measured approximation (Theorems 3 and 6)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()
