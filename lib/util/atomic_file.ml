let fsync_dir dir =
  (* Persist the rename itself: fsync the directory containing the
     entry.  Directories cannot be opened O_WRONLY; O_RDONLY is the
     portable spelling.  Some filesystems refuse fsync on a directory
     fd — treat that as best-effort rather than failing the write. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let write ?(fsync = false) ~path parts =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "dcn-atomic" ".tmp" in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () -> if not !ok then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          List.iter (output_string oc) parts;
          flush oc;
          if fsync then Unix.fsync (Unix.descr_of_out_channel oc));
      Sys.rename tmp path;
      ok := true;
      if fsync then fsync_dir dir)
