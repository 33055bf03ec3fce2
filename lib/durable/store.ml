module Json = Dcn_engine.Json
module Trace = Dcn_engine.Trace
module Session = Dcn_serve.Session
module Event = Dcn_serve.Event

let obs_recoveries =
  Dcn_obs.Registry.counter ~help:"store recoveries (checkpoint and/or WAL replay)"
    "serve.recoveries"

let obs_replayed =
  Dcn_obs.Registry.counter ~help:"WAL records replayed during recovery"
    "serve.replayed_events"

let obs_ckpt_age =
  Dcn_obs.Registry.gauge ~help:"committed events since the last checkpoint"
    "serve.checkpoint_age_events"

type t = {
  dir : string;
  wal : Wal.writer;
  session : Session.t;
  checkpoint_every : int;
  mutable seq : int;
  mutable since_checkpoint : int;
}

type recovery = {
  recovered : bool;
  checkpoint_seq : int;
  checkpoint_invalid : string option;
  replayed : int;
  tear : Wal.tear option;
}

let recovery_to_json r =
  Json.Obj
    [
      ("recovered", Json.Bool r.recovered);
      ("checkpoint_seq", Json.Int r.checkpoint_seq);
      ( "checkpoint_invalid",
        match r.checkpoint_invalid with
        | None -> Json.Null
        | Some m -> Json.Str m );
      ("replayed", Json.Int r.replayed);
      ( "tear",
        match r.tear with
        | None -> Json.Null
        | Some tear -> Json.Str (Wal.tear_to_string tear) );
    ]

let wal_path dir = Filename.concat dir "wal.log"

let ( let* ) = Result.bind

let open_ ?pool ~dir ~checkpoint_every ~graph ~power ~policy ~seed () =
  if checkpoint_every < 1 then
    Error "checkpoint_every must be >= 1"
  else begin
    (match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (* Checkpoint first: a valid one short-circuits most of the replay. *)
    let* restored, checkpoint_seq, checkpoint_invalid =
      match Checkpoint.load ~dir with
      | Checkpoint.Absent -> Ok (None, 0, None)
      | Checkpoint.Invalid m -> Ok (None, 0, Some m)
      | Checkpoint.Loaded { seq; state } -> (
        match Session.restore ?pool ~graph ~power ~policy state with
        | Ok session -> Ok (Some session, seq, None)
        | Error m ->
          (* A fingerprint mismatch is not recoverable by replay either:
             the WAL was committed under the mismatched parameters. *)
          if String.length m >= 11 && String.sub m 0 11 = "fingerprint" then
            Error m
          else Ok (None, 0, Some m))
    in
    let scan = Wal.scan (wal_path dir) in
    (match scan.Wal.tear with
    | Some _ -> Wal.truncate (wal_path dir) scan.Wal.valid_bytes
    | None -> ());
    let first_seq =
      match scan.Wal.records with
      | [] -> 0
      | r :: _ -> r.Wal.seq
    in
    let last_seq =
      match List.rev scan.Wal.records with
      | [] -> 0
      | r :: _ -> r.Wal.seq
    in
    (* The WAL is a segment rotated at each checkpoint, so an empty log
       (or one ending exactly at the checkpoint) is the normal
       post-checkpoint state.  What cannot be repaired: a segment whose
       first record is past what the checkpoint covers (the rotated-away
       history is gone and this checkpoint cannot stand in for it), a
       segment that ends before the checkpoint (synced bytes lost), or a
       checkpoint that cannot be used (corrupt, or state of an older
       format) next to a segment that does not begin at seq 1: a
       checkpoint file exists only once the log has been rotated, so
       only a log reaching back to seq 1 can stand in for it — not the
       empty segment a clean shutdown leaves. *)
    if checkpoint_invalid <> None && first_seq <> 1 then
      Error
        (Printf.sprintf
           "store %s cannot be recovered: its checkpoint is unusable (%s) \
            and the WAL segment does not reach back to seq 1"
           dir (Option.get checkpoint_invalid))
    else if first_seq > checkpoint_seq + 1 then
      Error
        (Printf.sprintf
           "store %s is inconsistent: the WAL segment begins at seq %d but \
            the %s covers only seq %d (log bytes lost)"
           dir first_seq
           (if checkpoint_seq = 0 then "(absent or invalid) checkpoint"
            else "checkpoint")
           checkpoint_seq)
    else if first_seq > 0 && last_seq < checkpoint_seq then
      Error
        (Printf.sprintf
           "store %s is inconsistent: checkpoint at seq %d but the WAL ends \
            at %d (log bytes lost)"
           dir checkpoint_seq last_seq)
    else begin
      let session =
        match restored with
        | Some s -> s
        | None ->
          Session.create ?pool ~graph ~power ~policy ~seed ()
      in
      let replayed = ref 0 in
      List.iter
        (fun (r : Wal.record) ->
          if r.seq > checkpoint_seq then begin
            ignore (Session.apply session r.event);
            incr replayed
          end)
        scan.Wal.records;
      let seq = max last_seq checkpoint_seq in
      let recovered = seq > 0 in
      if recovered then begin
        Dcn_obs.Registry.incr obs_recoveries;
        Dcn_obs.Registry.add obs_replayed (float_of_int !replayed)
      end;
      let t =
        {
          dir;
          wal = Wal.open_writer (wal_path dir);
          session;
          checkpoint_every;
          seq;
          since_checkpoint = seq - checkpoint_seq;
        }
      in
      Ok
        ( t,
          {
            recovered;
            checkpoint_seq;
            checkpoint_invalid;
            replayed = !replayed;
            tear = scan.Wal.tear;
          } )
    end
  end

let session t = t.session
let seq t = t.seq

(* A span's fields are fixed when it opens, and the size is known only
   once the state is encoded, so the bytes ride on an event inside it. *)
let checkpoint_now t =
  Trace.span ~fields:[ ("seq", Json.Int t.seq) ] "store.checkpoint" @@ fun () ->
  let body = Session.snapshot t.session in
  Trace.event ~fields:[ ("bytes", Json.Int (String.length body)) ] "store.checkpoint.bytes";
  Checkpoint.write ~dir:t.dir ~seq:t.seq body;
  (* Every logged record is now redundant with the checkpoint: rotate
     so the WAL stays bounded by the checkpoint interval.  A crash
     between the two leaves records <= checkpoint_seq, which recovery
     skips — the rotation is advisory, never load-bearing. *)
  Wal.reset t.wal;
  t.since_checkpoint <- 0;
  Dcn_obs.Registry.set obs_ckpt_age 0.

let apply_batch t events f =
  let first_seq = t.seq + 1 in
  (* Write-ahead: the whole batch is on stable storage before any state
     it produces exists. *)
  Wal.append_batch t.wal ~first_seq events;
  List.iteri
    (fun i event ->
      t.seq <- first_seq + i;
      let outcome = Session.apply t.session event in
      t.since_checkpoint <- t.since_checkpoint + 1;
      Dcn_obs.Registry.set obs_ckpt_age (float_of_int t.since_checkpoint);
      f ~seq:t.seq event outcome)
    events;
  (* Only now: a checkpoint inside the batch would rotate away records
     that are logged but not yet applied. *)
  if t.since_checkpoint >= t.checkpoint_every then checkpoint_now t

let apply t event =
  let result = ref None in
  apply_batch t [ event ] (fun ~seq:_ _ outcome -> result := Some outcome);
  Option.get !result

let close t =
  checkpoint_now t;
  Wal.close t.wal
