module Prng = Dcn_util.Prng
module Flow = Dcn_flow.Flow
module Table = Dcn_util.Table

type row = {
  seed : int;
  n_flows : int;
  exact : float;
  rs : float;
  ratio : float;
}

let run ?(alpha = 2.) ?(n_flows = 4) ?(links = 3) ~seeds () =
  Dcn_engine.Trace.span "experiment.small_exact"
    ~fields:
      [
        ("seeds", Dcn_engine.Json.Int (List.length seeds));
        ("flows", Dcn_engine.Json.Int n_flows);
      ]
  @@ fun () ->
  let graph = Dcn_topology.Builders.parallel ~links in
  let power = Dcn_power.Model.make ~sigma:0. ~mu:1. ~alpha () in
  List.map
    (fun seed ->
      let rng = Prng.create seed in
      let flows =
        List.init n_flows (fun id ->
            let r = Prng.uniform rng ~lo:0. ~hi:8. in
            let d = r +. 1. +. Prng.uniform rng ~lo:0. ~hi:4. in
            Flow.make ~id ~src:0 ~dst:1
              ~volume:(Prng.gaussian_positive rng ~mean:10. ~stddev:3.)
              ~release:r ~deadline:d)
      in
      let inst = Dcn_core.Instance.make ~graph ~power ~flows in
      let exact = (Dcn_core.Exact.search inst).Dcn_core.Exact.energy in
      let rs =
        Dcn_core.Random_schedule.solve
          ~config:
            { Dcn_core.Random_schedule.attempts = 20; fw_config = Fig2.experiment_fw_config }
          ~rng inst
      in
      let rs_energy = rs.Dcn_core.Solution.energy in
      { seed; n_flows; exact; rs = rs_energy; ratio = rs_energy /. exact })
    seeds

let render rows =
  let headers = [ "seed"; "flows"; "exact OPT"; "RS"; "RS/OPT" ] in
  let row r =
    [
      string_of_int r.seed;
      string_of_int r.n_flows;
      Table.cell_f ~decimals:2 r.exact;
      Table.cell_f ~decimals:2 r.rs;
      Table.cell_f r.ratio;
    ]
  in
  "Random-Schedule vs exact optimum (parallel links, exhaustive routing)\n"
  ^ Table.render ~headers ~rows:(List.map row rows) ()

let to_json rows =
  let module Json = Dcn_engine.Json in
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("seed", Json.Int r.seed);
             ("n_flows", Json.Int r.n_flows);
             ("exact", Json.float r.exact);
             ("rs", Json.float r.rs);
             ("ratio", Json.float r.ratio);
           ])
       rows)
