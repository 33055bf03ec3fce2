module Graph = Dcn_topology.Graph
module Model = Dcn_power.Model
module Sweep = Dcn_util.Sweep

type entry = {
  rank : int;
  flow : int;
  path : Graph.link list;
  start : float array;
  stop : float array;
  rate : float array;
}

let entry ~rank ~flow ~path ~start ~stop ~rate =
  let n = Array.length start in
  if Array.length stop <> n || Array.length rate <> n then
    invalid_arg "Link_state.entry: slot arrays differ in length";
  let idle = ref 0 in
  for k = 0 to n - 1 do
    if not (rate.(k) > 0. && stop.(k) > start.(k)) then incr idle
  done;
  if !idle = 0 then { rank; flow; path; start; stop; rate }
  else
    let keep = List.filter (fun k -> rate.(k) > 0. && stop.(k) > start.(k)) (List.init n Fun.id) in
    let pick a = Array.of_list (List.map (fun k -> a.(k)) keep) in
    { rank; flow; path; start = pick start; stop = pick stop; rate = pick rate }

type sweep = {
  terms : float array;
  peak : float * float * float;
  conflict : (float * int * int) option;
}

(* One link.  [profile] and [swept] are [None] while stale; [max_rate]
   and [energy] belong to [profile], [energy] is valid only when
   [energy_ok]. *)
type link = {
  mutable members : entry list;  (* descending rank *)
  mutable profile : Profile.t option;
  mutable max_rate : float;
  mutable energy : float;
  mutable energy_ok : bool;
  mutable swept : sweep option;
}

type t = {
  power : Model.t;
  links : link array;
  flows : (int, entry) Hashtbl.t;
  (* Links touched by a [verdict_with] query carry its generation. *)
  stamp : int array;
  mutable generation : int;
}

let create ~links power =
  {
    power;
    links =
      Array.init links (fun _ ->
          {
            members = [];
            profile = None;
            max_rate = 0.;
            energy = 0.;
            energy_ok = false;
            swept = None;
          });
    flows = Hashtbl.create 64;
    stamp = Array.make links 0;
    generation = 0;
  }

let links t = Array.length t.links
let mem t flow = Hashtbl.mem t.flows flow
let path t flow = (Hashtbl.find t.flows flow).path

let stale k =
  k.profile <- None;
  k.energy_ok <- false;
  k.swept <- None

let rec insert e = function
  | m :: rest when m.rank > e.rank -> m :: insert e rest
  | ms -> e :: ms

let add t e =
  if Hashtbl.mem t.flows e.flow then
    invalid_arg (Printf.sprintf "Link_state.add: flow %d is already present" e.flow);
  List.iter
    (fun l ->
      if l < 0 || l >= Array.length t.links then
        invalid_arg (Printf.sprintf "Link_state.add: flow %d crosses link %d" e.flow l))
    e.path;
  Hashtbl.replace t.flows e.flow e;
  List.iter
    (fun l ->
      let k = t.links.(l) in
      k.members <- insert e k.members;
      stale k)
    e.path

let remove t flow =
  match Hashtbl.find_opt t.flows flow with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.flows flow;
    List.iter
      (fun l ->
        let k = t.links.(l) in
        k.members <- List.filter (fun m -> m.flow <> flow) k.members;
        stale k)
      e.path

(* The slots of [members], in order, in three flat arrays. *)
let flatten members =
  let n = List.fold_left (fun n e -> n + Array.length e.start) 0 members in
  let start = Array.make n 0. and stop = Array.make n 0. and rate = Array.make n 0. in
  let x = ref 0 in
  List.iter
    (fun e ->
      let k = Array.length e.start in
      Array.blit e.start 0 start !x k;
      Array.blit e.stop 0 stop !x k;
      Array.blit e.rate 0 rate !x k;
      x := !x + k)
    members;
  (n, start, stop, rate)

(* ---------------------------- profile side ------------------------- *)

let profile_of_members = function
  | [] -> Profile.empty
  | members ->
    let n, start, stop, rate = flatten members in
    Profile.of_slot_arrays ~start ~stop ~rate ~pos:0 ~len:n

let profile k =
  match k.profile with
  | Some p -> p
  | None ->
    let p = profile_of_members k.members in
    k.profile <- Some p;
    k.max_rate <- Profile.max_rate p;
    p

let profile_energy t k =
  let p = profile k in
  if not k.energy_ok then begin
    k.energy <- Profile.dynamic_energy t.power p;
    k.energy_ok <- true
  end;
  k.energy

let profiles t =
  let acc = ref [] in
  for l = Array.length t.links - 1 downto 0 do
    let p = profile t.links.(l) in
    if not (Profile.is_idle p) then acc := (l, p) :: !acc
  done;
  Array.of_list !acc

let idle_energy t ~horizon =
  let t0, t1 = horizon in
  let active = ref 0 in
  Array.iter (fun k -> if not (Profile.is_idle (profile k)) then incr active) t.links;
  float_of_int !active *. t.power.Model.sigma *. (t1 -. t0)

let dynamic_energy t =
  let acc = ref 0. in
  for l = 0 to Array.length t.links - 1 do
    let k = t.links.(l) in
    if not (Profile.is_idle (profile k)) then acc := !acc +. profile_energy t k
  done;
  !acc

let energy t ~horizon = idle_energy t ~horizon +. dynamic_energy t

let max_rate t =
  let m = ref 0. in
  for l = 0 to Array.length t.links - 1 do
    let k = t.links.(l) in
    ignore (profile k);
    m := Float.max !m k.max_rate
  done;
  !m

type verdict = { overload : float; within_cap : bool }

let verdict_of (power : Model.t) max_rate =
  let cap = power.Model.cap in
  let overload = if Float.is_finite cap then max_rate () -. cap else neg_infinity in
  { overload; within_cap = overload <= 1e-6 *. Float.max 1. cap }

let verdict t = verdict_of t.power (fun () -> max_rate t)

let verdict_with t ~removed ~added =
  verdict_of t.power @@ fun () ->
  t.generation <- t.generation + 1;
  let g = t.generation in
  let touch l = t.stamp.(l) <- g in
  List.iter
    (fun flow -> Option.iter (fun e -> List.iter touch e.path) (Hashtbl.find_opt t.flows flow))
    removed;
  List.iter (fun e -> List.iter touch e.path) added;
  let m = ref 0. in
  for l = 0 to Array.length t.links - 1 do
    let k = t.links.(l) in
    let rate =
      if t.stamp.(l) <> g then begin
        ignore (profile k);
        k.max_rate
      end
      else
        let kept = List.filter (fun e -> not (List.mem e.flow removed)) k.members in
        let arriving = List.filter (fun e -> List.mem l e.path) added in
        Profile.max_rate (profile_of_members (kept @ arriving))
    in
    m := Float.max !m rate
  done;
  !m

(* ----------------------------- sweep side -------------------------- *)

(* The least [g] in [\[0, n)] with [v.(x) <= mids.(g)], [n] when none:
   midpoints ascend. *)
let first_mid (mids : float array) n (v : float array) x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v.(x) <= mids.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let no_sweep = { terms = [||]; peak = (0., 0., neg_infinity); conflict = None }

(* Cut the link's timeline at its entries' distinct boundaries and
   evaluate each elementary segment at its midpoint.  An entry covers
   the segments whose midpoint lies in [start, stop), one range of
   them, so each segment visits only the entries covering it, in entry
   order. *)
let sweep_of power = function
  | [] -> no_sweep
  | members ->
    let n, e_start, e_stop, e_rate = flatten members in
    let e_flow = Array.make n 0 and x = ref 0 in
    List.iter
      (fun e ->
        Array.fill e_flow !x (Array.length e.start) e.flow;
        x := !x + Array.length e.start)
      members;
    let cuts = Array.make (2 * n) 0. in
    Array.blit e_start 0 cuts 0 n;
    Array.blit e_stop 0 cuts n n;
    let segments = max 0 (Sweep.sort_distinct cuts ~pos:0 ~len:(2 * n) - 1) in
    let mids = Array.make segments 0. in
    for g = 0 to segments - 1 do
      mids.(g) <- 0.5 *. (cuts.(g) +. cuts.(g + 1))
    done;
    let first = Array.make n 0 and last = Array.make n 0 in
    for x = 0 to n - 1 do
      first.(x) <- first_mid mids segments e_start x;
      last.(x) <- first_mid mids segments e_stop x - 1
    done;
    let terms = Array.make segments 0. and n_terms = ref 0 in
    (* Float array cells: float refs updated inside the closure below
       would box every write. *)
    let peak = [| 0.; 0.; neg_infinity |] in
    let conflict = ref None in
    Sweep.iter_active ~segments ~first ~last (fun g covering n_covering ->
        let t0 = cuts.(g) and t1 = cuts.(g + 1) in
        let len = t1 -. t0 in
        if len > 0. then begin
          let rate = ref 0. in
          for c = 0 to n_covering - 1 do
            rate := !rate +. e_rate.(covering.(c))
          done;
          (* The first covering entry of another flow than the first. *)
          if Option.is_none !conflict && n_covering > 0 then begin
            let f0 = e_flow.(covering.(0)) in
            let c = ref 1 in
            while !c < n_covering && e_flow.(covering.(!c)) = f0 do
              incr c
            done;
            if !c < n_covering then conflict := Some (t0, f0, e_flow.(covering.(!c)))
          end;
          if !rate > 0. then begin
            terms.(!n_terms) <- Model.dynamic power !rate *. len;
            incr n_terms
          end;
          if !rate > peak.(2) then begin
            peak.(0) <- t0;
            peak.(1) <- t1;
            peak.(2) <- !rate
          end
        end);
    {
      terms = Array.sub terms 0 !n_terms;
      peak = (peak.(0), peak.(1), peak.(2));
      conflict = !conflict;
    }

let sweep t l =
  let k = t.links.(l) in
  match k.swept with
  | Some s -> s
  | None ->
    let s = sweep_of t.power k.members in
    k.swept <- Some s;
    s
