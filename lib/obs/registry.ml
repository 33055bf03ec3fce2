(* Process-global metrics registry.  Hot-path updates go to per-domain
   shards (Domain.DLS) so no lock or shared cache line is touched;
   [samples] merges the shards.  See registry.mli for the contracts. *)

module Hist = Dcn_engine.Profile.Hist

type kind = Counter | Gauge | Histogram

let kind_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let kind_of_string = function
  | "counter" -> Some Counter
  | "gauge" -> Some Gauge
  | "histogram" -> Some Histogram
  | _ -> None

type counter = int
type gauge = int
type histogram = int

type meta = {
  id : int;
  name : string;
  labels : (string * string) list;  (* sorted by key *)
  kind : kind;
  help : string;
}

(* ---------------------------- global state ------------------------ *)

(* Registration table: mutex-protected, cold path only. *)
let reg_mutex = Mutex.create ()
let by_key : (string * (string * string) list, meta) Hashtbl.t = Hashtbl.create 64
let metas : meta list ref = ref []  (* reversed registration order *)
let next_id = ref 0

let enabled = Atomic.make false

(* Bumped by [enable]/[reset]; shards lazily re-zero when their stored
   generation falls behind, so a reset needs no cross-domain writes. *)
let generation = Atomic.make 0
let started_at = Atomic.make 0.
let gauge_stamps = Atomic.make 0

(* Per-domain shard: parallel arrays indexed by metric id.  [values]
   holds counter totals and gauge values, [stamps] the global write
   sequence of the last gauge [set] (-1 = unset), [hists] lazily
   created per-domain partial histograms. *)
type shard = {
  mutable s_gen : int;
  mutable values : float array;
  mutable stamps : int array;
  mutable hists : Hist.t option array;
}

(* Every shard that has registered under the current generation; the
   scrape walks this list.  Mutex-protected (shards register rarely). *)
let shards : shard list ref = ref []

let dls : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { s_gen = -1; values = [||]; stamps = [||]; hists = [||] })

let ensure_capacity s id =
  let n = Array.length s.values in
  if id >= n then begin
    let n' = max 16 (max (id + 1) (2 * n)) in
    let values = Array.make n' 0. in
    Array.blit s.values 0 values 0 n;
    let stamps = Array.make n' (-1) in
    Array.blit s.stamps 0 stamps 0 n;
    let hists = Array.make n' None in
    Array.blit s.hists 0 hists 0 n;
    s.values <- values;
    s.stamps <- stamps;
    s.hists <- hists
  end

(* The calling domain's shard, zeroed and (re-)registered if it lags
   the current generation.  Stale-generation shards are pruned from the
   scrape list here rather than eagerly at reset time. *)
let shard () =
  let s = Domain.DLS.get dls in
  let g = Atomic.get generation in
  if s.s_gen <> g then begin
    s.s_gen <- g;
    Array.fill s.values 0 (Array.length s.values) 0.;
    Array.fill s.stamps 0 (Array.length s.stamps) (-1);
    Array.fill s.hists 0 (Array.length s.hists) None;
    Mutex.lock reg_mutex;
    shards := s :: List.filter (fun x -> x != s && x.s_gen = g) !shards;
    Mutex.unlock reg_mutex
  end;
  s

(* ---------------------------- registration ------------------------ *)

let register kind ?(help = "") ?(labels = []) name =
  if name = "" then invalid_arg "Dcn_obs.Registry: empty metric name";
  let labels = List.sort compare labels in
  Mutex.lock reg_mutex;
  let result =
    match Hashtbl.find_opt by_key (name, labels) with
    | Some m -> if m.kind = kind then Ok m.id else Error m.kind
    | None ->
      let id = !next_id in
      next_id := id + 1;
      let m = { id; name; labels; kind; help } in
      Hashtbl.add by_key (name, labels) m;
      metas := m :: !metas;
      Ok id
  in
  Mutex.unlock reg_mutex;
  match result with
  | Ok id -> id
  | Error was ->
    invalid_arg
      (Printf.sprintf "Dcn_obs.Registry: %S already registered as a %s" name
         (kind_to_string was))

let counter ?help ?labels name = register Counter ?help ?labels name
let gauge ?help ?labels name = register Gauge ?help ?labels name
let histogram ?help ?labels name = register Histogram ?help ?labels name

(* --------------------------- hot-path updates --------------------- *)

let incr ?(by = 1) c =
  if Atomic.get enabled then begin
    let s = shard () in
    ensure_capacity s c;
    s.values.(c) <- s.values.(c) +. float_of_int by
  end

let add c v =
  if Atomic.get enabled then begin
    let s = shard () in
    ensure_capacity s c;
    s.values.(c) <- s.values.(c) +. v
  end

let set g v =
  if Atomic.get enabled then begin
    let s = shard () in
    ensure_capacity s g;
    s.values.(g) <- v;
    s.stamps.(g) <- Atomic.fetch_and_add gauge_stamps 1
  end

let observe h v =
  if Atomic.get enabled then begin
    let s = shard () in
    ensure_capacity s h;
    let hist =
      match s.hists.(h) with
      | Some hi -> hi
      | None ->
        let hi = Hist.create () in
        s.hists.(h) <- Some hi;
        hi
    in
    Hist.add hist v
  end

(* ------------------------------ lifecycle ------------------------- *)

let reset () = Atomic.incr generation

let enable () =
  if not (Atomic.get enabled) then begin
    reset ();
    Atomic.set started_at (Unix.gettimeofday ());
    Atomic.set enabled true
  end

let disable () = Atomic.set enabled false

let on () = Atomic.get enabled

let uptime_ms () =
  let t0 = Atomic.get started_at in
  if t0 = 0. then 0. else 1e3 *. (Unix.gettimeofday () -. t0)

(* ------------------------------- reading -------------------------- *)

(* Shards of the current generation, plus the registered metas.  A
   scrape is expected to run while updaters are quiescent (between
   events / after a pool barrier); shard arrays are read without the
   owner's cooperation. *)
let current_state () =
  Mutex.lock reg_mutex;
  let g = Atomic.get generation in
  let ss = List.filter (fun s -> s.s_gen = g) !shards in
  let ms = List.rev !metas in
  Mutex.unlock reg_mutex;
  (ms, ss)

let sum_shards ss id =
  List.fold_left
    (fun acc s -> if id < Array.length s.values then acc +. s.values.(id) else acc)
    0. ss

let value c =
  let _, ss = current_state () in
  sum_shards ss c

let latest_gauge ss id =
  List.fold_left
    (fun acc s ->
      if id < Array.length s.stamps && s.stamps.(id) >= 0 then
        match acc with
        | Some (stamp, _) when stamp >= s.stamps.(id) -> acc
        | _ -> Some (s.stamps.(id), s.values.(id))
      else acc)
    None ss

let gauge_value g =
  let _, ss = current_state () in
  Option.map snd (latest_gauge ss g)

let merged_hist ss id =
  List.fold_left
    (fun acc s ->
      if id < Array.length s.hists then
        match s.hists.(id) with
        | Some h -> ( match acc with None -> Some h | Some a -> Some (Hist.merge a h))
        | None -> acc
      else acc)
    None ss

type dist = {
  d_count : int;
  d_sum : float;
  d_min : float;
  d_max : float;
  d_p50 : float;
  d_p90 : float;
  d_p99 : float;
  d_buckets : (int * int) list;
}

type value = Value of float | Dist of dist

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_kind : kind;
  s_help : string;
  s_value : value;
}

let dist_of_hist h =
  {
    d_count = Hist.count h;
    d_sum = Hist.total h;
    d_min = Hist.min_value h;
    d_max = Hist.max_value h;
    d_p50 = Hist.quantile h 0.5;
    d_p90 = Hist.quantile h 0.9;
    d_p99 = Hist.quantile h 0.99;
    d_buckets = Hist.buckets h;
  }

let samples () =
  let ms, ss = current_state () in
  let rows =
    List.filter_map
      (fun m ->
        let mk v =
          Some
            {
              s_name = m.name;
              s_labels = m.labels;
              s_kind = m.kind;
              s_help = m.help;
              s_value = v;
            }
        in
        match m.kind with
        | Counter -> mk (Value (sum_shards ss m.id))
        | Gauge -> (
          match latest_gauge ss m.id with
          | None -> None
          | Some (_, v) -> mk (Value v))
        | Histogram -> (
          match merged_hist ss m.id with
          | None -> None
          | Some h -> mk (Dist (dist_of_hist h))))
      ms
  in
  List.sort (fun a b -> compare (a.s_name, a.s_labels) (b.s_name, b.s_labels)) rows
