(* Order statistics over float samples. *)

(* Nearest-rank percentile, [p] in [0, 100]; nan on no samples. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 50. xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

let sum xs = Array.fold_left ( +. ) 0. xs

(* Mean of the middle half of [xs]: a quarter of the values at each end
   are left out. *)
let interquartile_mean xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  let cut = n / 4 in
  mean (Array.sub s cut (n - (2 * cut)))
