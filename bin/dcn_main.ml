(* dcn — command-line front end.  The commands live in one module per
   area and share the skeleton of Cli:

   - Cmd_paper: fig2, gadgets, ablation, small-exact, example1 (the
     paper's experiments, DESIGN.md);
   - Cmd_solve: generate, solve;
   - Cmd_trace: trace {summary,export,diff}, stats;
   - Cmd_check: certify, fuzz, resilience;
   - Cmd_serve: serve, replay, crash;
   - Cmd_coflow: coflow {solve,report}. *)

open Cmdliner

let () =
  (* DCN_SELFCHECK=1 makes every solver certify its own output. *)
  Dcn_check.Certify.selfcheck_from_env ();
  let doc = "energy-efficient deadline-constrained flow scheduling and routing" in
  let info = Cmd.info "dcn" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            Cmd_paper.fig2;
            Cmd_paper.gadgets;
            Cmd_paper.ablation;
            Cmd_paper.small_exact;
            Cmd_paper.example1;
            Cmd_solve.generate;
            Cmd_solve.solve;
            Cmd_trace.trace;
            Cmd_check.certify;
            Cmd_check.fuzz;
            Cmd_check.resilience;
            Cmd_serve.serve;
            Cmd_serve.replay;
            Cmd_serve.crash;
            Cmd_coflow.coflow;
            Cmd_trace.stats;
          ]))
