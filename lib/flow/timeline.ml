type t = { points : float array }

let make flows =
  if flows = [] then invalid_arg "Timeline.make: empty flow list";
  let n = List.length flows in
  let points = Array.make (2 * n) 0. in
  List.iteri
    (fun i (f : Flow.t) ->
      points.(2 * i) <- f.release;
      points.((2 * i) + 1) <- f.deadline)
    flows;
  { points = Array.sub points 0 (Dcn_util.Sweep.sort_distinct points ~pos:0 ~len:(2 * n)) }

let breakpoints t = t.points

let num_intervals t = Array.length t.points - 1

let bounds t k =
  if k < 0 || k >= num_intervals t then invalid_arg "Timeline.bounds: out of range";
  (t.points.(k), t.points.(k + 1))

let length t k =
  let lo, hi = bounds t k in
  hi -. lo

let horizon t = (t.points.(0), t.points.(Array.length t.points - 1))

let beta t k =
  let t0, t1 = horizon t in
  length t k /. (t1 -. t0)

let lambda t =
  let t0, t1 = horizon t in
  let shortest = ref infinity in
  for k = 0 to num_intervals t - 1 do
    shortest := Float.min !shortest (length t k)
  done;
  (t1 -. t0) /. !shortest

(* A flow spans interval k when its release is at most t_k and its
   deadline at least t_(k+1) (both up to Approx's slack); each test is
   monotone in k, so the flow spans one range of intervals. *)
let active_by_interval t flows =
  let k_max = num_intervals t in
  let buckets = Array.make k_max [] in
  List.iter
    (fun (f : Flow.t) ->
      let first =
        Dcn_util.Sweep.first_true ~lo:0 ~hi:k_max (fun k ->
            Dcn_util.Approx.leq f.release t.points.(k))
      in
      let last =
        Dcn_util.Sweep.first_true ~lo:0 ~hi:k_max (fun k ->
            not (Dcn_util.Approx.geq f.deadline t.points.(k + 1)))
        - 1
      in
      for k = first to last do
        buckets.(k) <- f :: buckets.(k)
      done)
    (List.rev flows);
  buckets

let interval_indices_of t f =
  let acc = ref [] in
  for k = num_intervals t - 1 downto 0 do
    let lo, hi = bounds t k in
    if Flow.spans_interval f ~lo ~hi then acc := k :: !acc
  done;
  !acc

let index_at t x =
  let t0, t1 = horizon t in
  if x < t0 || x > t1 then None
  else begin
    (* Binary search for the interval whose [lo, hi] contains x; boundary
       points resolve to the earlier interval. *)
    let lo = ref 0 and hi = ref (num_intervals t - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x <= t.points.(mid + 1) then hi := mid else lo := mid + 1
    done;
    Some !lo
  end
