type field = string * Json.t

type entry =
  | Span_open of { id : int; parent : int option; name : string; fields : field list }
  | Span_close of { id : int }
  | Event of { span : int option; name : string; fields : field list }
  | Counter of { name : string; delta : float }

type gc = { minor_words : float; major_words : float }

type record = {
  seq : int;
  time_ns : int64;
  domain : int;
  entry : entry;
  gc : gc option;
}

type t = {
  uid : int;  (* distinguishes traces in per-domain state *)
  mutex : Mutex.t;
  mutable entries : record list;  (* reversed *)
  mutable count : int;
  seq : int Atomic.t;
  span_ids : int Atomic.t;
  t0 : float;  (* wall-clock origin of time_ns *)
}

let uids = Atomic.make 0

let create () =
  {
    uid = Atomic.fetch_and_add uids 1;
    mutex = Mutex.create ();
    entries = [];
    count = 0;
    seq = Atomic.make 0;
    span_ids = Atomic.make 0;
    t0 = Unix.gettimeofday ();
  }

(* The process-global collector.  An [Atomic.t] so worker domains spawned
   before the trace was installed still observe it. *)
let current : t option Atomic.t = Atomic.make None

let install t = Atomic.set current (Some t)
let uninstall () = Atomic.set current None
let on () = Atomic.get current <> None

let with_trace t f =
  let previous = Atomic.get current in
  Atomic.set current (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set current previous) f

(* Per-domain emission state: the open-span stack (for parent links) and
   a clamp making timestamps non-decreasing per domain.  Keyed by the
   trace's [uid] so state left over from a previous trace is discarded. *)
type domain_state = {
  mutable for_uid : int;
  mutable stack : int list;
  mutable last_ns : int64;
}

let dls : domain_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { for_uid = -1; stack = []; last_ns = 0L })

let domain_state t =
  let st = Domain.DLS.get dls in
  if st.for_uid <> t.uid then begin
    st.for_uid <- t.uid;
    st.stack <- [];
    st.last_ns <- 0L
  end;
  st

let now t st =
  let ns = Int64.of_float ((Unix.gettimeofday () -. t.t0) *. 1e9) in
  let ns = if Int64.compare ns st.last_ns < 0 then st.last_ns else ns in
  st.last_ns <- ns;
  ns

let add ?gc t st entry =
  let seq = Atomic.fetch_and_add t.seq 1 in
  let r = { seq; time_ns = now t st; domain = (Domain.self () :> int); entry; gc } in
  Mutex.lock t.mutex;
  t.entries <- r :: t.entries;
  t.count <- t.count + 1;
  Mutex.unlock t.mutex

(* Only sampled while a collector is installed, so the disabled path
   stays a single branch.  [Gc.counters] rather than [Gc.quick_stat]:
   on OCaml 5 the latter's allocation fields only refresh at
   collections, while [counters] reads the live allocation pointers. *)
let sample_gc () =
  let minor_words, _promoted, major_words = Gc.counters () in
  Some { minor_words; major_words }

let event ?(fields = []) name =
  match Atomic.get current with
  | None -> ()
  | Some t ->
    let st = domain_state t in
    let span = match st.stack with [] -> None | s :: _ -> Some s in
    add t st (Event { span; name; fields })

let counter name delta =
  match Atomic.get current with
  | None -> ()
  | Some t -> add t (domain_state t) (Counter { name; delta })

let span ?(fields = []) name f =
  match Atomic.get current with
  | None -> f ()
  | Some t ->
    let id = Atomic.fetch_and_add t.span_ids 1 in
    let st = domain_state t in
    let parent = match st.stack with [] -> None | s :: _ -> Some s in
    add ?gc:(sample_gc ()) t st (Span_open { id; parent; name; fields });
    st.stack <- id :: st.stack;
    Fun.protect
      ~finally:(fun () ->
        (* The trace may have been swapped while the span was open; close
           into the trace that opened it, popping exactly this span. *)
        let st = domain_state t in
        (match st.stack with
        | s :: rest when s = id -> st.stack <- rest
        | stack -> st.stack <- List.filter (fun s -> s <> id) stack);
        add ?gc:(sample_gc ()) t st (Span_close { id }))
      f

let records t =
  Mutex.lock t.mutex;
  let entries = t.entries in
  Mutex.unlock t.mutex;
  List.sort (fun (a : record) (b : record) -> compare a.seq b.seq) entries

let length t =
  Mutex.lock t.mutex;
  let n = t.count in
  Mutex.unlock t.mutex;
  n

let clear t =
  Mutex.lock t.mutex;
  t.entries <- [];
  t.count <- 0;
  Mutex.unlock t.mutex

let counters t =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.entry with
      | Counter { name; delta } ->
        Hashtbl.replace totals name
          (delta +. Option.value ~default:0. (Hashtbl.find_opt totals name))
      | _ -> ())
    (records t);
  List.sort compare (Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals [])

let counter_total t name =
  Option.value ~default:0. (List.assoc_opt name (counters t))

let reserved =
  [
    "seq"; "t_ns"; "domain"; "type"; "id"; "parent"; "span"; "name"; "delta";
    "gc_minor_w"; "gc_major_w";
  ]

let record_to_json (r : record) =
  let base =
    [
      ("seq", Json.Int r.seq);
      ("t_ns", Json.Int (Int64.to_int r.time_ns));
      ("domain", Json.Int r.domain);
    ]
  in
  let opt = function None -> Json.Null | Some i -> Json.Int i in
  let typed, fields =
    match r.entry with
    | Span_open { id; parent; name; fields } ->
      ( [
          ("type", Json.Str "span_open");
          ("id", Json.Int id);
          ("parent", opt parent);
          ("name", Json.Str name);
        ],
        fields )
    | Span_close { id } -> ([ ("type", Json.Str "span_close"); ("id", Json.Int id) ], [])
    | Event { span; name; fields } ->
      ( [ ("type", Json.Str "event"); ("span", opt span); ("name", Json.Str name) ],
        fields )
    | Counter { name; delta } ->
      ( [ ("type", Json.Str "counter"); ("name", Json.Str name); ("delta", Json.float delta) ],
        [] )
  in
  let gc_fields =
    match r.gc with
    | None -> []
    | Some g ->
      [
        ("gc_minor_w", Json.float g.minor_words);
        ("gc_major_w", Json.float g.major_words);
      ]
  in
  let extra = List.filter (fun (k, _) -> not (List.mem k reserved)) fields in
  Json.Obj (base @ typed @ gc_fields @ extra)

let to_json t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("events", Json.List (List.map record_to_json (records t)));
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.float v)) (counters t)) );
    ]

(* ------------------------- reading back --------------------------- *)

let record_of_json j =
  let opt_int = function
    | None | Some Json.Null -> None
    | Some v -> Some (Json.to_int v)
  in
  let extras =
    match j with
    | Json.Obj fields -> List.filter (fun (k, _) -> not (List.mem k reserved)) fields
    | _ -> []
  in
  let entry =
    match Json.to_str (Json.get "type" j) with
    | "span_open" ->
      Span_open
        {
          id = Json.to_int (Json.get "id" j);
          parent = opt_int (Json.member "parent" j);
          name = Json.to_str (Json.get "name" j);
          fields = extras;
        }
    | "span_close" -> Span_close { id = Json.to_int (Json.get "id" j) }
    | "event" ->
      Event
        {
          span = opt_int (Json.member "span" j);
          name = Json.to_str (Json.get "name" j);
          fields = extras;
        }
    | "counter" ->
      Counter
        {
          name = Json.to_str (Json.get "name" j);
          delta = Json.to_float (Json.get "delta" j);
        }
    | ty -> failwith (Printf.sprintf "Trace.records_of_json: unknown record type %S" ty)
  in
  let gc =
    match (Json.member "gc_minor_w" j, Json.member "gc_major_w" j) with
    | Some mi, Some ma ->
      Some { minor_words = Json.to_float mi; major_words = Json.to_float ma }
    | _ -> None
  in
  {
    seq = Json.to_int (Json.get "seq" j);
    time_ns = Int64.of_int (Json.to_int (Json.get "t_ns" j));
    domain = Json.to_int (Json.get "domain" j);
    entry;
    gc;
  }

let records_of_json j =
  (match Json.member "version" j with
  | Some (Json.Int 1) -> ()
  | _ -> failwith "Trace.records_of_json: unsupported or missing trace version");
  List.map record_of_json (Json.to_list (Json.get "events" j))
