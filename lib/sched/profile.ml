(* Segment [k] is [lo.(k), hi.(k)) at rate [rate.(k)], chronological. *)
type t = { lo : float array; hi : float array; rate : float array }

let idle_eps = 1e-12

let empty = { lo = [||]; hi = [||]; rate = [||] }

let of_slot_arrays ~start ~stop ~rate ~pos ~len =
  for x = pos to pos + len - 1 do
    if rate.(x) < 0. then invalid_arg "Profile.of_slots: negative rate";
    if stop.(x) < start.(x) then invalid_arg "Profile.of_slots: stop < start"
  done;
  (* Rate changes as (time, delta) in two flat arrays, visited in
     (time, delta) order through a stable index sort. *)
  let time = Array.make (2 * len) 0. and delta = Array.make (2 * len) 0. in
  let n = ref 0 in
  for x = pos to pos + len - 1 do
    if stop.(x) > start.(x) && rate.(x) > 0. then begin
      time.(!n) <- start.(x);
      delta.(!n) <- rate.(x);
      time.(!n + 1) <- stop.(x);
      delta.(!n + 1) <- -.rate.(x);
      n := !n + 2
    end
  done;
  let n = !n in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      let c = Float.compare time.(i) time.(j) in
      if c <> 0 then c else Float.compare delta.(i) delta.(j))
    order;
  (* Sweep: accumulate rate changes; equal timestamps are adjacent and
     batch together, summed in sorted order.  Adjacent segments with
     equal rate (within tolerance) coalesce, keeping the first rate. *)
  let lo = Array.make n 0. and hi = Array.make n 0. and seg_rate = Array.make n 0. in
  let segs = ref 0 in
  let push a b r =
    let k = !segs in
    if k > 0 && Float.abs (hi.(k - 1) -. a) <= 1e-12 && Float.abs (seg_rate.(k - 1) -. r) <= 1e-12
    then hi.(k - 1) <- b
    else begin
      lo.(k) <- a;
      hi.(k) <- b;
      seg_rate.(k) <- r;
      segs := k + 1
    end
  in
  let rate = ref 0. and from = ref neg_infinity and i = ref 0 in
  while !i < n do
    let x = time.(order.(!i)) in
    if !rate > idle_eps && x > !from then push !from x !rate;
    while !i < n && time.(order.(!i)) = x do
      rate := !rate +. delta.(order.(!i));
      incr i
    done;
    if Float.abs !rate < idle_eps then rate := 0.;
    from := x
  done;
  let k = !segs in
  { lo = Array.sub lo 0 k; hi = Array.sub hi 0 k; rate = Array.sub seg_rate 0 k }

let of_slots slots =
  let len = List.length slots in
  let start = Array.make len 0. and stop = Array.make len 0. and rate = Array.make len 0. in
  List.iteri
    (fun x (a, b, r) ->
      start.(x) <- a;
      stop.(x) <- b;
      rate.(x) <- r)
    slots;
  of_slot_arrays ~start ~stop ~rate ~pos:0 ~len

let segments t = List.init (Array.length t.lo) (fun k -> (t.lo.(k), t.hi.(k), t.rate.(k)))

let rate_at t x =
  let k = Dcn_util.Sweep.first_true ~lo:0 ~hi:(Array.length t.lo) (fun k -> x < t.hi.(k)) in
  if k < Array.length t.lo && x >= t.lo.(k) then t.rate.(k) else 0.

let max_rate t = Array.fold_left Float.max 0. t.rate

let busy_time t =
  let acc = ref 0. in
  for k = 0 to Array.length t.lo - 1 do
    acc := !acc +. (t.hi.(k) -. t.lo.(k))
  done;
  !acc

let volume t =
  let acc = ref 0. in
  for k = 0 to Array.length t.lo - 1 do
    acc := !acc +. ((t.hi.(k) -. t.lo.(k)) *. t.rate.(k))
  done;
  !acc

let is_idle t = Array.length t.lo = 0

let dynamic_energy model t =
  let acc = ref 0. in
  for k = 0 to Array.length t.lo - 1 do
    acc := !acc +. ((t.hi.(k) -. t.lo.(k)) *. Dcn_power.Model.dynamic model t.rate.(k))
  done;
  !acc
