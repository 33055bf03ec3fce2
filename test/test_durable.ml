(* Dcn_durable: CRC vectors, WAL round-trip and tear handling, session
   snapshot/restore, checkpoint+replay equivalence, recovery
   jobs-invariance, the bounded pending queue, and a small seeded crash
   campaign. *)

module Json = Dcn_engine.Json
module Trace = Dcn_engine.Trace
module Pool = Dcn_engine.Pool
module Builders = Dcn_topology.Builders
module Model = Dcn_power.Model
module Event = Dcn_serve.Event
module Session = Dcn_serve.Session
module Repair = Dcn_resilience.Repair
module Crc = Dcn_durable.Crc
module Wal = Dcn_durable.Wal
module Checkpoint = Dcn_durable.Checkpoint
module Pending = Dcn_durable.Pending
module Store = Dcn_durable.Store
module Crash = Dcn_durable.Crash

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_events ?limit name =
  let lines =
    String.split_on_char '\n' (read_file ("corpus/" ^ name))
    |> List.filter (fun l -> String.trim l <> "")
  in
  let lines =
    match limit with
    | None -> lines
    | Some n -> List.filteri (fun i _ -> i < n) lines
  in
  List.map
    (fun line ->
      match Event.of_json (Json.of_string line) with
      | Ok e -> e
      | Error m -> Alcotest.failf "corpus line rejected: %s" m)
    lines

let graph = Builders.line 5
let power = Model.make ~sigma:1. ~mu:1. ~alpha:2. ~cap:6. ()
let policy = Repair.Drop_latest_deadline

let session ?(pool = Pool.sequential) ?(seed = 42) () =
  Session.create ~pool ~graph ~power ~policy ~seed ()

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dcn-durable-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A fresh temp directory holding a copy of [dir]'s files — the store
   directory as a crash at this instant would leave it. *)
let copy_dir dir =
  let copy = temp_dir () in
  Array.iter
    (fun e ->
      let oc = open_out_bin (Filename.concat copy e) in
      output_string oc (read_file (Filename.concat dir e));
      close_out oc)
    (Sys.readdir dir);
  copy

let events20 = lazy (corpus_events ~limit:20 "serve-100.events")

(* -------------------------------- crc ------------------------------ *)

let test_crc_vectors () =
  (* The standard CRC-32 check value, cross-checkable with zlib. *)
  Alcotest.(check string) "check value" "cbf43926"
    (Crc.to_hex (Crc.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Crc.to_hex (Crc.string ""));
  Alcotest.(check bool) "hex round trip" true
    (Crc.of_hex (Crc.to_hex (Crc.string "wal")) = Some (Crc.string "wal"));
  Alcotest.(check bool) "reject short" true (Crc.of_hex "abc" = None);
  Alcotest.(check bool) "reject non-hex" true (Crc.of_hex "xyzxyzxy" = None)

(* A checkpoint's state is encoded once and its CRC taken over the
   written bytes; the file must stay byte-identical to the fixture,
   written after the first 8 coflow-mix events at cap 1.25 in state
   format version 2.  Restoring the fixture's state and checkpointing
   the session again reproduces it; a flipped state byte is caught by
   the load. *)
let test_checkpoint_fixture () =
  let fixture = read_file "corpus/checkpoint-coflow-mix-8.json" in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let put bytes =
    let oc = open_out_bin (Checkpoint.path ~dir) in
    output_string oc bytes;
    close_out oc
  in
  put fixture;
  match Checkpoint.load ~dir with
  | Checkpoint.Absent | Checkpoint.Invalid _ -> Alcotest.fail "fixture did not load"
  | Checkpoint.Loaded { seq; state } -> (
    Alcotest.(check int) "seq" 8 seq;
    let power = Model.make ~sigma:0. ~mu:1. ~alpha:2. ~cap:1.25 () in
    match Session.restore ~graph:(Builders.fat_tree 4) ~power ~policy state with
    | Error m -> Alcotest.failf "fixture state does not restore: %s" m
    | Ok session ->
      Checkpoint.write ~dir ~seq (Session.snapshot session);
      Alcotest.(check string) "bytes" fixture (read_file (Checkpoint.path ~dir));
      (* The first digit of the state's clock. *)
      let key = "\"clock\":" in
      let rec find i = if String.sub fixture i (String.length key) = key then i else find (i + 1) in
      let i = find 0 + String.length key in
      let flipped = Bytes.of_string fixture in
      Bytes.set flipped i (if fixture.[i] = '1' then '2' else '1');
      put (Bytes.to_string flipped);
      Alcotest.(check bool) "flipped state byte" true
        (Checkpoint.load ~dir = Checkpoint.Invalid "state checksum mismatch"))

(* ---------------------------- atomic file -------------------------- *)

let test_atomic_file () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "out.json" in
  Dcn_util.Atomic_file.write ~path [ "first" ];
  Alcotest.(check string) "written" "first" (read_file path);
  Dcn_util.Atomic_file.write ~fsync:true ~path [ "sec"; "ond" ];
  Alcotest.(check string) "replaced" "second" (read_file path);
  (* No temp litter left behind. *)
  Alcotest.(check (list string)) "only the target" [ "out.json" ]
    (Array.to_list (Sys.readdir dir))

(* -------------------------------- wal ------------------------------ *)

let wal_events =
  lazy
    [
      Event.Advance_clock { clock = 1. };
      Event.Flow_arrival
        (Dcn_flow.Flow.make ~id:1 ~src:0 ~dst:4 ~volume:6. ~release:1.
           ~deadline:5.);
      Event.Flow_cancel { flow = 1 };
      Event.Advance_clock { clock = 2. };
    ]

let write_wal dir events =
  let path = Filename.concat dir "wal.log" in
  let w = Wal.open_writer path in
  List.iteri (fun i e -> Wal.append w ~seq:(i + 1) e) events;
  Wal.close w;
  path

let test_wal_round_trip () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let events = Lazy.force wal_events in
  let path = write_wal dir events in
  let scan = Wal.scan path in
  Alcotest.(check bool) "no tear" true (scan.Wal.tear = None);
  Alcotest.(check int) "all records" (List.length events)
    (List.length scan.Wal.records);
  Alcotest.(check int) "valid_bytes covers the file"
    (String.length (read_file path))
    scan.Wal.valid_bytes;
  List.iteri
    (fun i (r : Wal.record) ->
      Alcotest.(check int) "seq" (i + 1) r.Wal.seq;
      Alcotest.(check string) "event round trip"
        (Json.to_string (Event.to_json (List.nth events i)))
        (Json.to_string (Event.to_json r.Wal.event)))
    scan.Wal.records;
  (* A missing file is an empty log, not an error. *)
  let empty = Wal.scan (Filename.concat dir "absent.log") in
  Alcotest.(check int) "absent = empty" 0 (List.length empty.Wal.records)

let test_wal_append_batch_bytes () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let events = Lazy.force wal_events in
  let path = Filename.concat dir "wal.log" in
  let w = Wal.open_writer path in
  let module Registry = Dcn_obs.Registry in
  Registry.enable ();
  Fun.protect ~finally:Registry.disable (fun () ->
      Wal.append w ~seq:7 (List.hd events);
      Alcotest.(check string) "one append = one encoded record"
        (Wal.encode ~seq:7 (List.hd events))
        (read_file path);
      Wal.append_batch w ~first_seq:8 (List.tl events);
      Wal.append_batch w ~first_seq:11 [];
      let total name = Registry.value (Registry.counter name) in
      Alcotest.(check (float 0.)) "records counted" 4.
        (total "serve.wal_appends");
      Alcotest.(check (float 0.)) "one fsync per non-empty batch" 2.
        (total "serve.wal_syncs"));
  Wal.close w;
  Alcotest.(check string) "batch = the concatenated encoded records"
    (String.concat ""
       (List.mapi (fun i e -> Wal.encode ~seq:(7 + i) e) events))
    (read_file path);
  let scan = Wal.scan path in
  Alcotest.(check bool) "no tear" true (scan.Wal.tear = None);
  Alcotest.(check (list int)) "seqs" [ 7; 8; 9; 10 ]
    (List.map (fun r -> r.Wal.seq) scan.Wal.records);
  Alcotest.(check (list string)) "events read back"
    (List.map (fun e -> Json.to_string (Event.to_json e)) events)
    (List.map (fun r -> Json.to_string (Event.to_json r.Wal.event))
       scan.Wal.records)

let test_wal_flipped_byte () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let events = Lazy.force wal_events in
  let path = write_wal dir events in
  let raw = read_file path in
  (* Flip one byte inside the *second* record's JSON. *)
  let first_len = String.length (Wal.encode ~seq:1 (List.nth events 0)) in
  let at = first_len + 30 in
  let b = Bytes.of_string raw in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  let scan = Wal.scan path in
  (* The scan stops at the flipped record: everything after a corrupt
     record is suspect. *)
  Alcotest.(check int) "only the first record survives" 1
    (List.length scan.Wal.records);
  Alcotest.(check int) "valid prefix" first_len scan.Wal.valid_bytes;
  match scan.Wal.tear with
  | Some (Wal.Bad_checksum | Wal.Bad_header) -> ()
  | other ->
    Alcotest.failf "expected checksum/header tear, got %s"
      (match other with
      | None -> "no tear"
      | Some t -> Wal.tear_to_string t)

let test_wal_torn_tail_truncation () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let events = Lazy.force wal_events in
  let path = write_wal dir events in
  let raw = read_file path in
  (* Chop the last record mid-line (a torn append). *)
  let keep = String.length raw - 7 in
  let oc = open_out_bin path in
  output_string oc (String.sub raw 0 keep);
  close_out oc;
  let scan = Wal.scan path in
  Alcotest.(check int) "prefix survives"
    (List.length events - 1)
    (List.length scan.Wal.records);
  Alcotest.(check bool) "partial-line tear" true
    (scan.Wal.tear = Some Wal.Partial_line);
  (* Truncation repairs the log in place. *)
  Wal.truncate path scan.Wal.valid_bytes;
  let rescan = Wal.scan path in
  Alcotest.(check bool) "clean after truncate" true (rescan.Wal.tear = None);
  Alcotest.(check int) "same records"
    (List.length events - 1)
    (List.length rescan.Wal.records)

(* The committed fixture: three valid records then a chopped fourth —
   scanned through the same reader the recovery path uses, and checked
   against the authoritative encoder. *)
let test_wal_torn_fixture () =
  let scan = Wal.scan "corpus/wal-torn.events" in
  Alcotest.(check int) "three valid records" 3 (List.length scan.Wal.records);
  Alcotest.(check bool) "partial-line tear" true
    (scan.Wal.tear = Some Wal.Partial_line);
  let raw = read_file "corpus/wal-torn.events" in
  Alcotest.(check bool) "tear strictly inside the file" true
    (scan.Wal.valid_bytes < String.length raw);
  (* Each fixture record is byte-identical to the encoder's output. *)
  let off = ref 0 in
  List.iter
    (fun (r : Wal.record) ->
      let line = Wal.encode ~seq:r.Wal.seq r.Wal.event in
      Alcotest.(check string) "fixture bytes = encoder bytes" line
        (String.sub raw !off (String.length line));
      off := !off + String.length line)
    scan.Wal.records;
  Alcotest.(check int) "valid_bytes = sum of record lines" !off
    scan.Wal.valid_bytes

(* -------------------------- snapshot/restore ----------------------- *)

let test_snapshot_restore_round_trip () =
  let events = Lazy.force events20 in
  let s = session () in
  List.iter (fun e -> ignore (Session.apply s e)) events;
  let snap = Session.snapshot s in
  match Session.restore ~graph ~power ~policy (Json.of_string snap) with
  | Error m -> Alcotest.failf "restore failed: %s" m
  | Ok s' ->
    Alcotest.(check string) "snapshot fixed point" snap (Session.snapshot s');
    Alcotest.(check string) "report identical"
      (Json.to_string (Session.report s))
      (Json.to_string (Session.report s'));
    (* The restored session continues the exact stream. *)
    let more = corpus_events ~limit:30 "serve-100.events" in
    let tail = List.filteri (fun i _ -> i >= 20) more in
    List.iter
      (fun e ->
        Alcotest.(check string) "same outcome after restore"
          (Json.to_string (Session.outcome_to_json (Session.apply s e)))
          (Json.to_string (Session.outcome_to_json (Session.apply s' e))))
      tail

let test_restore_rejects_mismatch () =
  let s = session () in
  List.iter (fun e -> ignore (Session.apply s e)) (Lazy.force events20);
  let snap = Json.of_string (Session.snapshot s) in
  (match
     Session.restore ~graph:(Builders.line 4) ~power ~policy snap
   with
  | Error m ->
    Alcotest.(check bool) "names the fingerprint" true
      (String.length m >= 11 && String.sub m 0 11 = "fingerprint")
  | Ok _ -> Alcotest.fail "restored under a different topology");
  (match Session.restore ~graph ~power ~policy:Repair.Reject_new snap with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restored under a different policy");
  (match
     Session.restore ~graph
       ~power:(Model.make ~sigma:2. ~mu:1. ~alpha:2. ~cap:6. ())
       ~policy snap
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restored under a different power model");
  let with_field name v =
    Json.Obj
      (List.map
         (fun (k, x) -> if k = name then (k, v) else (k, x))
         (Json.to_obj snap))
  in
  (* Stores written before the path-table format are refused, not
     misread. *)
  (match Session.restore ~graph ~power ~policy (with_field "version" (Json.Int 1)) with
  | Error m -> Alcotest.(check string) "version 1 refused" "unsupported snapshot version 1" m
  | Ok _ -> Alcotest.fail "restored a version-1 snapshot");
  (* Committed paths, coflow membership or a relaxation that disagree
     with the flow set describe a session no event sequence can reach;
     a link id or path index out of range would index past the
     re-solve's per-link arrays. *)
  let paths = Json.to_list (Json.get "paths" snap) in
  let a, b =
    match Session.active_flows s with
    | f :: g :: _ -> (f.Dcn_flow.Flow.id, g.Dcn_flow.Flow.id)
    | _ -> Alcotest.fail "fewer than two committed flows after 20 events"
  in
  let path id = Json.Obj [ ("flow", Json.Int id); ("links", Json.List []) ] in
  let relaxation = Json.get "relaxation" snap in
  let intervals = Json.to_list (Json.get "intervals" relaxation) in
  let table = Json.to_list (Json.get "path_table" relaxation) in
  let with_relaxation name v =
    with_field "relaxation"
      (Json.Obj
         (List.map
            (fun (k, x) -> if k = name then (k, v) else (k, x))
            (Json.to_obj relaxation)))
  in
  let with_intervals is = with_relaxation "intervals" (Json.List is) in
  let num_links = Dcn_topology.Graph.num_links graph in
  let with_table_link l =
    with_relaxation "path_table" (Json.List (Json.List [ Json.Int l ] :: List.tl table))
  in
  let with_committed_link l =
    match paths with
    | p :: rest ->
      with_field "paths"
        (Json.List
           (Json.Obj [ ("flow", Json.get "flow" p); ("links", Json.List [ Json.Int l ]) ]
           :: rest))
    | [] -> Alcotest.fail "no committed paths after 20 events"
  in
  (* The first interval row that routes a flow, its first path index
     replaced by [k]. *)
  let with_path_index k =
    let replaced = ref false in
    let row r =
      match Json.to_list r with
      | index :: lo :: hi :: cost :: lb :: mo :: Json.List (flow :: _ :: w :: more) :: fps
        when not !replaced ->
        replaced := true;
        Json.List
          (index :: lo :: hi :: cost :: lb :: mo
          :: Json.List (flow :: Json.Int k :: w :: more)
          :: fps)
      | _ -> r
    in
    let is = List.map row intervals in
    if not !replaced then Alcotest.fail "no interval routes a flow after 20 events";
    with_intervals is
  in
  let coflows cs =
    with_field "coflows"
      (Json.List
         (List.map
            (fun (cid, ms) ->
              Json.Obj
                [
                  ("coflow", Json.Int cid);
                  ("members", Json.List (List.map (fun m -> Json.Int m) ms));
                ])
            cs))
  in
  List.iter
    (fun (what, bad) ->
      match Session.restore ~graph ~power ~policy bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "restored a snapshot with %s" what)
    [
      ( "a path for an unknown flow",
        with_field "paths" (Json.List (paths @ [ path 999 ])) );
      ( "a flow listed twice in paths",
        with_field "paths" (Json.List (List.hd paths :: paths)) );
      ("a coflow member that is not committed", coflows [ (7, [ 999 ]) ]);
      ("a coflow id listed twice", coflows [ (7, [ a ]); (7, [ b ]) ]);
      ("a flow in two coflows", coflows [ (7, [ a ]); (8, [ a ]) ]);
      ("a coflow with no members", coflows [ (7, []) ]);
      ( "a relaxation missing an interval",
        with_intervals (List.filteri (fun k _ -> k > 0) intervals) );
      ( "relaxation intervals out of order",
        with_intervals (List.rev intervals) );
    ];
  (* Refused by the range checks themselves, before any array is
     indexed with the value. *)
  List.iter
    (fun (what, want, bad) ->
      match Session.restore ~graph ~power ~policy bad with
      | Error m -> Alcotest.(check string) what want m
      | Ok _ -> Alcotest.failf "restored a snapshot with %s" what)
    [
      ( "a path-table link past the last link",
        Printf.sprintf "the relaxation path table names link %d of %d" num_links num_links,
        with_table_link num_links );
      ( "a negative path-table link",
        Printf.sprintf "the relaxation path table names link -1 of %d" num_links,
        with_table_link (-1) );
      ( "a committed link past the last link",
        Printf.sprintf "a committed path names link %d of %d" num_links num_links,
        with_committed_link num_links );
      ( "a negative committed link",
        Printf.sprintf "a committed path names link -1 of %d" num_links,
        with_committed_link (-1) );
      ( "a path index past the table",
        Printf.sprintf "a relaxation interval names path %d of %d" (List.length table)
          (List.length table),
        with_path_index (List.length table) );
      ( "a negative path index",
        Printf.sprintf "a relaxation interval names path -1 of %d" (List.length table),
        with_path_index (-1) );
    ]

let test_uptime_monotone_nonnegative () =
  let s = session () in
  let a = Session.uptime_ms s in
  let b = Session.uptime_ms s in
  Alcotest.(check bool) "non-negative" true (a >= 0.);
  Alcotest.(check bool) "non-decreasing" true (b >= a)

(* ------------------------------- store ----------------------------- *)

let store_dir_with ?(checkpoint_every = 7) events =
  let dir = temp_dir () in
  (match
     Store.open_ ~dir ~checkpoint_every ~graph ~power ~policy ~seed:42 ()
   with
  | Error m -> Alcotest.failf "store open failed: %s" m
  | Ok (store, recovery) ->
    Alcotest.(check bool) "fresh store" false recovery.Store.recovered;
    List.iter (fun e -> ignore (Store.apply store e)) events;
    Store.close store);
  dir

let test_store_checkpoint_replay_equals_full_replay () =
  let events = Lazy.force events20 in
  let dir = store_dir_with events in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* Uninterrupted reference. *)
  let reference = session () in
  List.iter (fun e -> ignore (Session.apply reference e)) events;
  (* Recover from checkpoint + WAL tail. *)
  match Store.open_ ~dir ~checkpoint_every:7 ~graph ~power ~policy ~seed:42 ()
  with
  | Error m -> Alcotest.failf "recovery failed: %s" m
  | Ok (store, recovery) ->
    Alcotest.(check bool) "recovered" true recovery.Store.recovered;
    Alcotest.(check int) "seq" 20 (Store.seq store);
    (* close wrote a final checkpoint at seq 20: nothing to replay. *)
    Alcotest.(check int) "checkpoint at close" 20 recovery.Store.checkpoint_seq;
    Alcotest.(check int) "no tail to replay" 0 recovery.Store.replayed;
    Alcotest.(check string) "state = uninterrupted replay"
      (Session.snapshot reference)
      (Session.snapshot (Store.session store));
    Store.close store

(* Each checkpoint is one [store.checkpoint] span carrying its seq; the
   size of the state it wrote is on a [store.checkpoint.bytes] event
   inside it. *)
let test_store_checkpoint_spans () =
  let events =
    corpus_events "serve-100.events"
    @ List.init 20 (fun i -> Event.Advance_clock { clock = 1000. +. float_of_int i })
  in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  match Store.open_ ~dir ~checkpoint_every:50 ~graph ~power ~policy ~seed:42 () with
  | Error m -> Alcotest.failf "store open failed: %s" m
  | Ok (store, _) ->
    let trace = Trace.create () in
    Trace.with_trace trace (fun () ->
        List.iter (fun e -> ignore (Store.apply store e)) events);
    let file = read_file (Checkpoint.path ~dir) in
    Store.close store;
    let records = List.map (fun (r : Trace.record) -> r.entry) (Trace.records trace) in
    let spans =
      List.filter_map
        (function
          | Trace.Span_open { id; name = "store.checkpoint"; fields; _ } ->
            Some (id, Json.to_int (List.assoc "seq" fields))
          | _ -> None)
        records
    in
    Alcotest.(check (list int)) "one span per checkpoint, with its seq" [ 50; 100 ]
      (List.map snd spans);
    let bytes =
      List.filter_map
        (function
          | Trace.Event { span = Some id; name = "store.checkpoint.bytes"; fields } ->
            Some (id, Json.to_int (List.assoc "bytes" fields))
          | _ -> None)
        records
    in
    Alcotest.(check (list int)) "bytes inside each span" (List.map fst spans)
      (List.map fst bytes);
    let key = {|"state":|} in
    let rec find i = if String.sub file i (String.length key) = key then i else find (i + 1) in
    Alcotest.(check int) "bytes of the seq-100 state"
      (String.length file - find 0 - String.length key - 1)
      (snd (List.nth bytes 1))

(* A store closed cleanly holds an empty WAL segment, so nothing but its
   checkpoint can rebuild its 20 events.  With the checkpoint's state in
   version 1 (the format before the path table) or a flipped byte, the
   store must not reopen as a fresh session. *)
let test_store_refuses_unusable_checkpoint () =
  List.iter
    (fun (what, spoil) ->
      let dir = store_dir_with (Lazy.force events20) in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      (match Checkpoint.load ~dir with
      | Checkpoint.Loaded { seq; state } -> spoil ~dir ~seq state
      | Checkpoint.Absent | Checkpoint.Invalid _ -> Alcotest.fail "no checkpoint at close");
      match Store.open_ ~dir ~checkpoint_every:7 ~graph ~power ~policy ~seed:42 () with
      | Ok _ -> Alcotest.failf "reopened a store with %s" what
      | Error m ->
        let has sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) (Printf.sprintf "%s named in %S" what m) true (has what))
    [
      ( "unsupported snapshot version 1",
        fun ~dir ~seq state ->
          Checkpoint.write ~dir ~seq
            (Json.to_string
               (Json.Obj
                  (List.map
                     (fun (k, v) -> if k = "version" then (k, Json.Int 1) else (k, v))
                     (Json.to_obj state)))) );
      ( "state checksum mismatch",
        fun ~dir ~seq:_ _ ->
          (* The first digit of the state's clock. *)
          let file = Bytes.of_string (read_file (Checkpoint.path ~dir)) in
          let key = {|"clock":|} in
          let rec find i = if Bytes.sub_string file i (String.length key) = key then i else find (i + 1) in
          let i = find 0 + String.length key in
          Bytes.set file i (if Bytes.get file i = '1' then '2' else '1');
          let oc = open_out_bin (Checkpoint.path ~dir) in
          output_bytes oc file;
          close_out oc );
    ]

let test_store_recovers_without_checkpoint () =
  (* A WAL reaching back to seq 1 with no checkpoint at all — the state
     of a session that crashed before its first checkpoint.  Recovery
     must fall back to a full replay. *)
  let events = Lazy.force events20 in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let _ = write_wal dir events in
  let reference = session () in
  List.iter (fun e -> ignore (Session.apply reference e)) events;
  match Store.open_ ~dir ~checkpoint_every:7 ~graph ~power ~policy ~seed:42 ()
  with
  | Error m -> Alcotest.failf "recovery failed: %s" m
  | Ok (store, recovery) ->
    Alcotest.(check int) "no checkpoint" 0 recovery.Store.checkpoint_seq;
    Alcotest.(check int) "whole log replayed" 20 recovery.Store.replayed;
    Alcotest.(check string) "state = uninterrupted replay"
      (Session.snapshot reference)
      (Session.snapshot (Store.session store));
    Store.close store

let test_store_wal_rotation () =
  let events = Lazy.force events20 in
  let dir = store_dir_with events in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let wal_path = Filename.concat dir "wal.log" in
  (* close checkpointed at seq 20 and rotated: the segment is empty, so
     a long-lived session's log is bounded by the checkpoint interval. *)
  Alcotest.(check int) "wal empty after checkpoint" 0
    (Unix.stat wal_path).Unix.st_size;
  (* A crash between checkpoint write and rotation leaves a stale
     segment of already-checkpointed records; recovery skips them. *)
  let w = Wal.open_writer wal_path in
  List.iteri
    (fun i e -> if i >= 14 then Wal.append w ~seq:(i + 1) e)
    events;
  Wal.close w;
  let scan = Wal.scan wal_path in
  Alcotest.(check bool) "segment may start past seq 1" true
    (scan.Wal.tear = None
    && List.length scan.Wal.records = 6
    && (List.hd scan.Wal.records).Wal.seq = 15);
  (match
     Store.open_ ~dir ~checkpoint_every:7 ~graph ~power ~policy ~seed:42 ()
   with
  | Error m -> Alcotest.failf "recovery over a stale segment failed: %s" m
  | Ok (store, recovery) ->
    Alcotest.(check int) "nothing replayed" 0 recovery.Store.replayed;
    Alcotest.(check int) "seq from the checkpoint" 20 (Store.seq store);
    Store.close store);
  (* A segment starting past what the checkpoint covers is lost
     history: recovery must refuse rather than silently diverge. *)
  Sys.remove (Checkpoint.path ~dir);
  Sys.remove wal_path;
  let w = Wal.open_writer wal_path in
  List.iteri
    (fun i e -> if i >= 14 then Wal.append w ~seq:(i + 1) e)
    events;
  Wal.close w;
  match Store.open_ ~dir ~checkpoint_every:7 ~graph ~power ~policy ~seed:42 ()
  with
  | Error m ->
    let contains_loss =
      let needle = "log bytes lost" in
      let n = String.length needle and h = String.length m in
      let rec go i = i + n <= h && (String.sub m i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the loss" true contains_loss
  | Ok _ -> Alcotest.fail "recovered across rotated-away history"

(* Group commit must checkpoint only after the whole batch: with
   [checkpoint_every:1], a checkpoint inside the batch would rotate away
   records that are logged but not yet applied. *)
let test_store_batch_checkpoints_after_batch () =
  let events = corpus_events ~limit:5 "serve-100.events" in
  let sequential = store_dir_with ~checkpoint_every:1 events in
  let dir = temp_dir () in
  let mid_batch = ref None and after_batch = ref None in
  Fun.protect
    ~finally:(fun () ->
      List.iter rm_rf
        (sequential :: dir
        :: List.filter_map Fun.id [ !mid_batch; !after_batch ]))
  @@ fun () ->
  let reference = session () in
  let want_outcomes =
    List.map
      (fun e ->
        Json.to_string (Session.outcome_to_json (Session.apply reference e)))
      events
  in
  (match
     Store.open_ ~dir ~checkpoint_every:1 ~graph ~power ~policy ~seed:42 ()
   with
  | Error m -> Alcotest.failf "store open failed: %s" m
  | Ok (store, _) ->
    let got = ref [] in
    Store.apply_batch store events (fun ~seq _ out ->
        got := (seq, Json.to_string (Session.outcome_to_json out)) :: !got;
        Alcotest.(check int) "the whole batch stays logged" 5
          (List.length (Wal.scan (Filename.concat dir "wal.log")).Wal.records);
        Alcotest.(check bool) "no checkpoint inside the batch" false
          (Sys.file_exists (Checkpoint.path ~dir));
        if seq = 2 then mid_batch := Some (copy_dir dir));
    Alcotest.(check (list (pair int string))) "outcomes, in order"
      (List.mapi (fun i o -> (i + 1, o)) want_outcomes)
      (List.rev !got);
    after_batch := Some (copy_dir dir);
    Store.close store);
  let reopen dir =
    match
      Store.open_ ~dir ~checkpoint_every:1 ~graph ~power ~policy ~seed:42 ()
    with
    | Error m -> Alcotest.failf "recovery failed: %s" m
    | Ok (store, recovery) ->
      let snap = Session.snapshot (Store.session store) in
      let seq = Store.seq store in
      Store.close store;
      (seq, recovery.Store.checkpoint_seq, snap)
  in
  let _, _, want = reopen sequential in
  (* Killed after the batch, before close: the post-batch checkpoint. *)
  let seq, checkpoint_seq, snap = reopen (Option.get !after_batch) in
  Alcotest.(check int) "seq" 5 seq;
  Alcotest.(check int) "checkpoint_seq" 5 checkpoint_seq;
  Alcotest.(check string) "state = five sequential Store.apply" want snap;
  (* Killed mid-batch: every record was synced first, so all replay. *)
  let seq, checkpoint_seq, snap = reopen (Option.get !mid_batch) in
  Alcotest.(check int) "mid-batch kill: seq" 5 seq;
  Alcotest.(check int) "mid-batch kill: no checkpoint yet" 0 checkpoint_seq;
  Alcotest.(check string) "mid-batch kill: state" want snap

let test_store_recovery_jobs_invariant () =
  let events = Lazy.force events20 in
  let dir = store_dir_with events in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let recover pool =
    (* Recovery must not advance the durable state: copy the dir. *)
    let copy = copy_dir dir in
    Fun.protect ~finally:(fun () -> rm_rf copy) @@ fun () ->
    match
      Store.open_ ?pool ~dir:copy ~checkpoint_every:7 ~graph ~power ~policy
        ~seed:42 ()
    with
    | Error m -> Alcotest.failf "recovery failed: %s" m
    | Ok (store, _) ->
      let tail = [ Event.Advance_clock { clock = 3. } ] in
      let outs =
        List.map
          (fun e ->
            Json.to_string (Session.outcome_to_json (Store.apply store e)))
          tail
      in
      let snap = Session.snapshot (Store.session store) in
      Store.close store;
      (snap, outs)
  in
  let seq = recover None in
  let par = Pool.with_pool ~jobs:4 (fun pool -> recover (Some pool)) in
  Alcotest.(check string) "snapshot byte-identical at --jobs 1 vs 4"
    (fst seq) (fst par);
  List.iter2
    (Alcotest.(check string) "outcome byte-identical at --jobs 1 vs 4")
    (snd seq) (snd par)

(* ------------------------------ pending ---------------------------- *)

let test_pending_shed_newest () =
  let q = Pending.create ~capacity:2 ~policy:Repair.Shed_newest in
  Alcotest.(check bool) "enq a" true (Pending.offer q "a" = Pending.Enqueued);
  Alcotest.(check bool) "enq b" true (Pending.offer q "b" = Pending.Enqueued);
  Alcotest.(check bool) "shed the arrival" true
    (Pending.offer q "c" = Pending.Shed "c");
  Alcotest.(check (list string)) "fifo" [ "a"; "b" ] (Pending.pop_all q);
  Alcotest.(check int) "emptied" 0 (Pending.length q);
  Alcotest.(check bool) "room again" true
    (Pending.offer q "d" = Pending.Enqueued);
  Alcotest.(check (list string)) "d" [ "d" ] (Pending.pop_all q);
  Alcotest.(check (list string)) "empty" [] (Pending.pop_all q)

let test_pending_shed_oldest () =
  let q = Pending.create ~capacity:2 ~policy:Repair.Shed_oldest in
  ignore (Pending.offer q "a");
  ignore (Pending.offer q "b");
  Alcotest.(check bool) "evict the oldest" true
    (Pending.offer q "c" = Pending.Shed "a");
  Alcotest.(check (list string)) "b, then c" [ "b"; "c" ] (Pending.pop_all q);
  Alcotest.(check bool) "capacity floor" true
    (match Pending.create ~capacity:0 ~policy:Repair.Shed_newest with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_shed_policy_strings () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "round trip" true
        (Repair.shed_policy_of_string (Repair.shed_policy_to_string p) = Some p))
    [ Repair.Shed_newest; Repair.Shed_oldest ];
  Alcotest.(check bool) "unknown" true
    (Repair.shed_policy_of_string "drop-table" = None)

(* --------------------------- crash campaign ------------------------ *)

let test_crash_campaign () =
  let events = corpus_events ~limit:40 "serve-100.events" in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t =
    Crash.run ~window:3 ~checkpoint_every:5 ~dir ~graph ~power ~policy ~seed:7
      ~kills:6 events
  in
  Alcotest.(check int) "six kills" 6 (List.length t.Crash.rows);
  Alcotest.(check bool) "campaign ok" true t.Crash.ok;
  List.iter
    (fun (r : Crash.row) ->
      Alcotest.(check bool) "row ok" true r.Crash.ok;
      Alcotest.(check bool) "state bit-identical" true r.Crash.state_match;
      Alcotest.(check bool) "re-certified" true r.Crash.certified)
    t.Crash.rows;
  (* Determinism: the same seed reproduces the identical report. *)
  let t' =
    Crash.run ~window:3 ~checkpoint_every:5 ~dir ~graph ~power ~policy ~seed:7
      ~kills:6 events
  in
  Alcotest.(check string) "seeded campaign reproducible"
    (Json.to_string (Crash.to_json t))
    (Json.to_string (Crash.to_json t'))

(* A negative redelivery window would compare no outcome after any
   recovery and still report success: it is refused up front. *)
let test_crash_rejects_negative_window () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Alcotest.check_raises "window -1"
    (Invalid_argument "Crash.run: window must be >= 0") (fun () ->
      ignore
        (Crash.run ~window:(-1) ~dir ~graph ~power ~policy ~seed:7 ~kills:2
           (Lazy.force events20)))

let suite =
  [
    ( "durable",
      [
        Alcotest.test_case "crc vectors" `Quick test_crc_vectors;
        Alcotest.test_case "atomic file" `Quick test_atomic_file;
        Alcotest.test_case "checkpoint fixture bytes" `Quick test_checkpoint_fixture;
        Alcotest.test_case "wal round trip" `Quick test_wal_round_trip;
        Alcotest.test_case "wal append batch bytes" `Quick
          test_wal_append_batch_bytes;
        Alcotest.test_case "wal flipped byte" `Quick test_wal_flipped_byte;
        Alcotest.test_case "wal torn tail truncation" `Quick
          test_wal_torn_tail_truncation;
        Alcotest.test_case "wal torn fixture" `Quick test_wal_torn_fixture;
        Alcotest.test_case "snapshot restore round trip" `Quick
          test_snapshot_restore_round_trip;
        Alcotest.test_case "restore rejects mismatch" `Quick
          test_restore_rejects_mismatch;
        Alcotest.test_case "uptime monotone" `Quick
          test_uptime_monotone_nonnegative;
        Alcotest.test_case "checkpoint+replay = full replay" `Quick
          test_store_checkpoint_replay_equals_full_replay;
        Alcotest.test_case "checkpoint trace spans" `Quick test_store_checkpoint_spans;
        Alcotest.test_case "unusable checkpoint refused" `Quick
          test_store_refuses_unusable_checkpoint;
        Alcotest.test_case "recovery without checkpoint" `Quick
          test_store_recovers_without_checkpoint;
        Alcotest.test_case "wal rotation at checkpoints" `Quick
          test_store_wal_rotation;
        Alcotest.test_case "batch checkpoints after the batch" `Quick
          test_store_batch_checkpoints_after_batch;
        Alcotest.test_case "recovery jobs-invariant" `Quick
          test_store_recovery_jobs_invariant;
        Alcotest.test_case "pending shed-newest" `Quick test_pending_shed_newest;
        Alcotest.test_case "pending shed-oldest" `Quick test_pending_shed_oldest;
        Alcotest.test_case "shed policy strings" `Quick test_shed_policy_strings;
        Alcotest.test_case "crash campaign" `Quick test_crash_campaign;
        Alcotest.test_case "crash rejects a negative window" `Quick
          test_crash_rejects_negative_window;
      ] );
  ]
