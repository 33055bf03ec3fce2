module Json = Dcn_engine.Json
module Prng = Dcn_util.Prng
module Session = Dcn_serve.Session
module Instance = Dcn_core.Instance
module Certify = Dcn_check.Certify

type tear_kind = Clean | Chop | Flip

let tear_kind_to_string = function
  | Clean -> "clean"
  | Chop -> "chop"
  | Flip -> "flip"

type row = {
  kill : int;
  tear : tear_kind;
  checkpoint_seq : int;
  replayed : int;
  tear_detected : bool;
  state_match : bool;
  certified : bool;
  window : int;
  outcomes_match : bool;
  ok : bool;
}

type t = {
  events : int;
  kills : int;
  seed : int;
  window : int;
  checkpoint_every : int;
  rows : row list;
  ok : bool;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let read_file_opt path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | content -> Some content
  | exception Sys_error _ -> None

(* The recovered schedule, re-certified from scratch against an
   instance rebuilt from the recovered flows — the independent check
   that bit-identical state is also still a *valid* state. *)
let recertify ~graph ~power session =
  match Session.schedule session with
  | None -> true
  | Some sched -> (
    match
      Instance.make_result ~graph ~power ~flows:(Session.active_flows session)
    with
    | Error _ -> false
    | Ok inst -> Certify.schedule inst sched = [])

let outcome_line o = Json.to_string (Session.outcome_to_json o)

let run ?pool ?(window = 5) ?(checkpoint_every = 10) ~dir ~graph ~power
    ~policy ~seed ~kills events =
  if events = [] then invalid_arg "Crash.run: empty event list";
  if window < 0 then invalid_arg "Crash.run: window must be >= 0";
  let events = Array.of_list events in
  let n = Array.length events in
  let kills = max 1 (min kills n) in
  mkdir_p dir;

  (* Reference pass: the uninterrupted session, snapshot + outcome line
     at every boundary.  Index i = state after events 1..i. *)
  let ref_snap = Array.make (n + 1) "" in
  let ref_out = Array.make (n + 1) "" in
  let reference = Session.create ?pool ~graph ~power ~policy ~seed () in
  ref_snap.(0) <- Session.snapshot reference;
  for i = 1 to n do
    ref_out.(i) <- outcome_line (Session.apply reference events.(i - 1));
    ref_snap.(i) <- Session.snapshot reference
  done;

  (* Every stream is split up front, in a fixed order, so adding one
     never shifts another. *)
  let root = Prng.create seed in
  let boundary_rng = Prng.split root in
  let kind_rng = Prng.split root in
  let mangle_rng = Prng.split root in
  let batch_rng = Prng.split root in

  (* Durable pass: same log through a Store in seeded batches of 1-8
     events (group commit), capturing the WAL and checkpoint bytes
     before every batch so any crash point can be reconstructed
     exactly.  (Byte snapshots, not length slices: the WAL rotates at
     each checkpoint, so the final file is only the last segment.)
     [batch_start.(i)] is the first event of the batch holding event i;
     index n + 1 stands for the empty batch after the last one, and
     [wal_before]/[ckpt_before] at a batch start hold the bytes on disk
     just before that batch is written. *)
  let full_dir = Filename.concat dir "full" in
  rm_rf full_dir;
  let batch_start = Array.make (n + 2) (n + 1) in
  let wal_before = Array.make (n + 2) "" in
  let ckpt_before = Array.make (n + 2) None in
  (match
     Store.open_ ?pool ~dir:full_dir ~checkpoint_every ~graph ~power
       ~policy ~seed ()
   with
  | Error m -> failwith ("Crash.run: durable pass failed to open: " ^ m)
  | Ok (store, _) ->
    let wal_path = Filename.concat full_dir "wal.log" in
    let ckpt_path = Checkpoint.path ~dir:full_dir in
    let rec pass first =
      wal_before.(first) <- Option.value ~default:"" (read_file_opt wal_path);
      ckpt_before.(first) <- read_file_opt ckpt_path;
      if first <= n then begin
        let size = min (n - first + 1) (1 + Prng.int batch_rng 8) in
        Array.fill batch_start first size first;
        Store.apply_batch store
          (Array.to_list (Array.sub events (first - 1) size))
          (fun ~seq _ out ->
            if outcome_line out <> ref_out.(seq) then
              Printf.ksprintf failwith
                "Crash.run: durable pass diverged from reference at event %d"
                seq);
        pass (first + size)
      end
    in
    pass 1;
    Store.close store);

  (* Seeded kill schedule: distinct boundaries, tear kinds, chop sizes
     — all from pre-split streams so the campaign is reproducible. *)
  let boundaries = Array.init n (fun i -> i + 1) in
  Prng.shuffle boundary_rng boundaries;
  let chosen = Array.sub boundaries 0 kills in
  Array.sort compare chosen;
  let rows =
    Array.to_list chosen
    |> List.map (fun kill ->
           let tear =
             if kill >= n then Clean
             else
               match Prng.int kind_rng 3 with
               | 0 -> Chop
               | 1 -> Flip
               | _ -> Clean
           in
           let kill_dir = Filename.concat dir (Printf.sprintf "kill-%d" kill) in
           rm_rf kill_dir;
           mkdir_p kill_dir;
           (* The store directory exactly as the crash leaves it.  The
              kill strikes while the batch holding event [kill + 1] is
              being written, on a record boundary inside it: the bytes
              before that batch, plus its records up to the kill, plus
              (for torn kills) the next record damaged mid-write —
              [Wal.append_batch] writes exactly the [Wal.encode]
              records, so the synthesized log is byte-identical to a
              real one. *)
           let first = batch_start.(kill + 1) in
           let prefix =
             String.concat ""
               (wal_before.(first)
               :: List.init (kill - first + 1) (fun i ->
                      Wal.encode ~seq:(first + i) events.(first + i - 1)))
           in
           let tail =
             match tear with
             | Clean -> ""
             | Chop | Flip ->
               let record = Wal.encode ~seq:(kill + 1) events.(kill) in
               let len = String.length record in
               (match tear with
               | Chop ->
                 let keep = 1 + Prng.int mangle_rng (len - 1) in
                 String.sub record 0 keep
               | Flip ->
                 let at = Prng.int mangle_rng (len - 1) in
                 let b = Bytes.of_string record in
                 Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
                 Bytes.to_string b
               | Clean -> assert false)
           in
           write_file (Filename.concat kill_dir "wal.log") (prefix ^ tail);
           (match ckpt_before.(first) with
           | Some bytes -> write_file (Checkpoint.path ~dir:kill_dir) bytes
           | None -> ());
           let row =
             match
               Store.open_ ?pool ~dir:kill_dir ~checkpoint_every ~graph
                 ~power ~policy ~seed ()
             with
             | Error _ ->
               {
                 kill;
                 tear;
                 checkpoint_seq = 0;
                 replayed = 0;
                 tear_detected = false;
                 state_match = false;
                 certified = false;
                 window = 0;
                 outcomes_match = false;
                 ok = false;
               }
             | Ok (store, recovery) ->
               let tear_detected = recovery.Store.tear <> None in
               let state_match =
                 Store.seq store = kill
                 && Session.snapshot (Store.session store)
                    = ref_snap.(kill)
               in
               let certified = recertify ~graph ~power (Store.session store) in
               let upto = min n (kill + window) in
               let outcomes_match = ref true in
               for j = kill + 1 to upto do
                 let out = outcome_line (Store.apply store events.(j - 1)) in
                 if out <> ref_out.(j) then outcomes_match := false
               done;
               Store.close store;
               let ok =
                 recovery.Store.recovered
                 && tear_detected = (tear <> Clean)
                 && state_match && certified && !outcomes_match
               in
               {
                 kill;
                 tear;
                 checkpoint_seq = recovery.Store.checkpoint_seq;
                 replayed = recovery.Store.replayed;
                 tear_detected;
                 state_match;
                 certified;
                 window = upto - kill;
                 outcomes_match = !outcomes_match;
                 ok;
               }
           in
           rm_rf kill_dir;
           row)
  in
  rm_rf full_dir;
  {
    events = n;
    kills;
    seed;
    window;
    checkpoint_every;
    rows;
    ok = List.for_all (fun (r : row) -> r.ok) rows;
  }

let row_to_json (r : row) =
  Json.Obj
    [
      ("kill", Json.Int r.kill);
      ("tear", Json.Str (tear_kind_to_string r.tear));
      ("checkpoint_seq", Json.Int r.checkpoint_seq);
      ("replayed", Json.Int r.replayed);
      ("tear_detected", Json.Bool r.tear_detected);
      ("state_match", Json.Bool r.state_match);
      ("certified", Json.Bool r.certified);
      ("window", Json.Int r.window);
      ("outcomes_match", Json.Bool r.outcomes_match);
      ("ok", Json.Bool r.ok);
    ]

let to_json t =
  Json.Obj
    [
      ("events", Json.Int t.events);
      ("kills", Json.Int t.kills);
      ("seed", Json.Int t.seed);
      ("window", Json.Int t.window);
      ("checkpoint_every", Json.Int t.checkpoint_every);
      ("rows", Json.List (List.map row_to_json t.rows));
      ("ok", Json.Bool t.ok);
    ]

let pp_row ppf (r : row) =
  Format.fprintf ppf
    "kill@%-3d %-5s ckpt %-3d +%-2d replayed  %s%s%s%s  window %d"
    r.kill
    (tear_kind_to_string r.tear)
    r.checkpoint_seq r.replayed
    (if r.tear_detected then "tear-detected " else "")
    (if r.state_match then "state-ok " else "STATE-MISMATCH ")
    (if r.certified then "certified " else "UNCERTIFIED ")
    (if r.outcomes_match then "outcomes-ok" else "OUTCOME-MISMATCH")
    r.window
