(* The skeleton every `dcn` subcommand fills: the options several
   commands share, the fabric they describe, the file reader, and
   {!run}, which turns a command body into cmdliner's result. *)

open Cmdliner
module Json = Dcn_engine.Json

let parse_topology s =
  match String.split_on_char ':' s with
  | [ "fat-tree"; k ] -> Ok (Dcn_topology.Builders.fat_tree (int_of_string k))
  | [ "bcube"; n; l ] ->
    Ok (Dcn_topology.Builders.bcube ~n:(int_of_string n) ~level:(int_of_string l))
  | [ "dcell"; n; l ] ->
    Ok (Dcn_topology.Builders.dcell ~n:(int_of_string n) ~level:(int_of_string l))
  | [ "leaf-spine"; s; l; h ] ->
    Ok
      (Dcn_topology.Builders.leaf_spine ~spines:(int_of_string s)
         ~leaves:(int_of_string l) ~hosts_per_leaf:(int_of_string h))
  | [ "line"; n ] -> Ok (Dcn_topology.Builders.line (int_of_string n))
  | [ "parallel"; k ] -> Ok (Dcn_topology.Builders.parallel ~links:(int_of_string k))
  | [ "star"; n ] -> Ok (Dcn_topology.Builders.star ~leaves:(int_of_string n))
  | _ ->
    Error
      (`Msg
        "expected fat-tree:K | bcube:N:L | dcell:N:L | leaf-spine:S:L:H | line:N | parallel:K | star:N")

let topology_conv =
  Arg.conv
    ( (fun s -> try parse_topology s with Failure _ -> Error (`Msg "bad topology spec")),
      fun ppf g -> Dcn_topology.Graph.pp ppf g )

let topo_t =
  Arg.(
    value
    & opt topology_conv (Dcn_topology.Builders.fat_tree 4)
    & info [ "topology" ] ~doc:"Network: fat-tree:K, bcube:N:L, leaf-spine:S:L:H, ...")

let alpha_t =
  Arg.(value & opt float 2. & info [ "alpha" ] ~doc:"Power exponent $(docv) (> 1)." ~docv:"A")

let sigma_t = Arg.(value & opt float 0. & info [ "sigma" ] ~doc:"Idle power per link.")

let cap_t =
  Arg.(
    value
    & opt float infinity
    & info [ "cap" ]
        ~doc:
          "Link capacity; arrivals that would push a link beyond it go \
           through the admission policy.  Default: unbounded."
        ~docv:"C")

(* The fabric of the serving and coflow commands: --topology with the
   power model of --alpha/--sigma/--cap.  Parameters {!Dcn_power.Model}
   refuses exit through cmdliner's error path, like {!guard}'s. *)
let fabric_t =
  let make graph alpha sigma cap =
    match Dcn_power.Model.make ~sigma ~mu:1. ~alpha ~cap () with
    | power -> Ok (graph, power)
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Term.(term_result (const make $ topo_t $ alpha_t $ sigma_t $ cap_t))

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let jobs_t =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ]
        ~doc:
          "Parallelism (worker domains + the caller). 0 reads the DCN_JOBS \
           environment variable (a positive integer, or 0 for one per core) and \
           falls back to 1. Results are bit-identical for every value.")

let policy_conv =
  Arg.conv
    ( (fun s ->
        match Dcn_resilience.Repair.policy_of_string s with
        | Some p -> Ok p
        | None ->
          Error
            (`Msg
              "expected drop-latest-deadline | drop-largest-residual | \
               reject-new")),
      fun ppf p ->
        Format.pp_print_string ppf (Dcn_resilience.Repair.policy_to_string p) )

let policy_t =
  Arg.(
    value
    & opt policy_conv Dcn_resilience.Repair.Drop_latest_deadline
    & info [ "policy" ]
        ~doc:
          "Admission policy under degradation: $(b,drop-latest-deadline), \
           $(b,drop-largest-residual) or $(b,reject-new)."
        ~docv:"POLICY")

let strict_t =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Stop at the first malformed event line (default: report the \
           position on stderr and keep going).")

(* ------------------------------ files ----------------------------- *)

(* [parse_file path parse]: the whole file through [parse], whose
   [Failure] is re-raised with the path in front ("PATH: line 6 ..."),
   so a malformed input names the file it came from.  Event and
   snapshot streams are read line by line from an
   [In_channel.with_open_bin] channel (or stdin) instead, and every file
   the CLI writes goes through the atomic {!Observe.write_file}. *)
let parse_file path parse =
  let text = In_channel.with_open_bin path In_channel.input_all in
  try parse text with Failure m -> failwith (Printf.sprintf "%s: %s" path m)

let ensure_dir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* The line discipline of every newline-delimited JSON stream the CLI
   reads (events, telemetry snapshots): lines are numbered from 1, blank
   ones are skipped, and [f ~line_no ~line_base line] handles the rest
   ([line_base] is the line's offset in the stream).  A line [f] refuses
   with [Error msg] is malformed: --strict stops there, the default
   reports it on stderr and reads on.  Returns the number of malformed
   lines and the message that stopped a strict read. *)
let read_lines ?(stop = fun () -> false) ~command ~strict f ic =
  let line_no = ref 0 and base = ref 0 in
  let malformed = ref 0 and fatal = ref None in
  (try
     while !fatal = None && not (stop ()) do
       let line = input_line ic in
       incr line_no;
       let line_base = !base in
       base := !base + String.length line + 1;
       if String.trim line <> "" then
         match f ~line_no:!line_no ~line_base line with
         | Ok () -> ()
         | Error msg ->
           incr malformed;
           if strict then fatal := Some msg
           else Printf.eprintf "[%s] skipping %s\n%!" command msg
     done
   with End_of_file -> ());
  (!malformed, !fatal)

(* ------------------------------ runner ---------------------------- *)

(* Predictable failures — unreadable or malformed files, invalid model
   parameters, workloads a topology cannot host — exit through
   cmdliner's error path (message + status 124) instead of escaping as a
   raw exception and a backtrace.  Genuine bugs still escape: only the
   typed, user-input-shaped exceptions are translated. *)
let guard f =
  match f () with
  | v -> v
  | exception Sys_error m -> Error (`Msg m)
  | exception Failure m -> Error (`Msg m)
  | exception Invalid_argument m -> Error (`Msg m)
  | exception Dcn_core.Instance.Invalid e ->
    Error (`Msg ("invalid instance: " ^ Dcn_core.Instance.error_to_string e))

(* [run ~command ?jobs ?trace ?report body]: the one skeleton of every
   command.  [body pool] prints the command's output and returns its
   report sections and its verdict ([Error msg] exits non-zero with
   [msg] after the trace and report are written).  The pool has --jobs
   domains (0 reads DCN_JOBS) and is torn down on the way out; a command
   without --jobs runs on the sequential pool.  Exceptions the body
   raises for bad input go through {!guard}. *)
let run ~command ?jobs ?(trace = None) ?(report = None) body =
  guard @@ fun () ->
  let traced pool = Observe.run ~command ~trace ~report (fun () -> body pool) in
  let verdict =
    match jobs with
    | None -> traced Dcn_engine.Pool.sequential
    | Some jobs when jobs < 0 ->
      Error (Printf.sprintf "--jobs must be >= 0 (got %d)" jobs)
    | Some jobs ->
      let jobs = if jobs = 0 then Dcn_engine.Pool.default_jobs () else jobs in
      Dcn_engine.Pool.with_pool ~jobs traced
  in
  Result.map_error (fun m -> `Msg m) verdict

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) (Term.term_result term)
