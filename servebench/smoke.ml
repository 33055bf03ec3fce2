(* Smoke test of the serving-path benchmark.

     smoke.exe BENCHMARK.json SERVEBENCH DCN

   Runs every workload in --smoke mode (a handful of events each), once
   untraced and once traced, and checks that each run exits 0, stamps
   its environment, passes the correctness replay ("correct": true, no
   failures), and prints exactly the metrics BENCHMARK.json names for
   that mode, each with its declared unit. *)

module Json = Dcn_engine.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("smoke: " ^ m); exit 1) fmt
let workloads = [ "tick-light"; "steady-100"; "coflow-shed" ]

let declared bench key =
  List.map
    (fun m -> (Json.to_str (Json.get "name" m), Json.to_str (Json.get "unit" m)))
    (Json.to_list (Json.get key bench))

let run exe args =
  let out = Filename.temp_file ~temp_dir:"." "smoke" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd Unix.stderr in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (status, String.split_on_char '\n' (String.trim text))

let check bench ~servebench ~dcn workload trace =
  let label = Printf.sprintf "%s --trace %d" workload trace in
  let status, lines =
    run servebench
      [ "--workload"; workload; "--seed"; "1"; "--seconds"; "0.5";
        "--trace"; string_of_int trace; "--smoke"; "--dcn"; dcn;
        "--workdir"; ".smoke" ]
  in
  if status <> Unix.WEXITED 0 then fail "%s: did not exit 0" label;
  if not (List.exists (fun l -> String.length l > 4 && String.sub l 0 4 = "env ") lines)
  then fail "%s: no environment stamp" label;
  let result = Json.of_string (List.nth lines (List.length lines - 1)) in
  if Json.get "correct" result <> Json.Bool true then fail "%s: not correct" label;
  if Json.to_int (Json.get "failed" result) <> 0 then fail "%s: failures" label;
  if Json.to_int (Json.get "attempted" result) < 1 then fail "%s: nothing attempted" label;
  let metrics = Json.to_obj (Json.get "metrics" result) in
  let want = declared bench (if trace = 0 then "end_to_end" else "per_layer") in
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | None -> fail "%s: metric %s missing" label name
      | Some m ->
        let got = Json.to_str (Json.get "unit" m) in
        if got <> unit then fail "%s: %s in %s, declared %s" label name got unit;
        if not (Float.is_finite (Json.to_float (Json.get "value" m))) then
          fail "%s: %s is not a finite number" label name)
    want;
  if List.length metrics <> List.length want then
    fail "%s: %d metrics printed, %d declared" label (List.length metrics)
      (List.length want);
  Printf.printf "smoke %-24s ok (%d metrics)\n%!" label (List.length want)

let () =
  match Sys.argv with
  | [| _; bench; servebench; dcn |] ->
    let bench = Json.of_string (In_channel.with_open_bin bench In_channel.input_all) in
    let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
    List.iter
      (fun w -> List.iter (check bench ~servebench:(abs servebench) ~dcn:(abs dcn) w) [ 0; 1 ])
      workloads
  | _ -> fail "usage: smoke.exe BENCHMARK.json SERVEBENCH DCN"
