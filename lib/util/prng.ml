type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy g = { state = g.state }

let state g = g.state

let set_state g s = g.state <- s

(* splitmix64 finaliser: mixes the incremented counter into an output. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let split g =
  let s = bits64 g in
  { state = mix s }

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let r = Int64.shift_right_logical (bits64 g) 1 in
    let v = Int64.rem r bound64 in
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then draw ()
    else Int64.to_int v
  in
  draw ()

let float g bound =
  if not (bound > 0.) then invalid_arg "Prng.float: bound must be positive";
  (* 53 uniform mantissa bits. *)
  let r = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float r /. 9007199254740992.0 *. bound

let uniform g ~lo ~hi =
  if hi < lo then invalid_arg "Prng.uniform: hi < lo";
  if hi = lo then lo else lo +. float g (hi -. lo)

let rec gaussian g ~mean ~stddev =
  let u = uniform g ~lo:(-1.) ~hi:1. in
  let v = uniform g ~lo:(-1.) ~hi:1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then gaussian g ~mean ~stddev
  else mean +. (stddev *. u *. sqrt (-2. *. log s /. s))

let gaussian_positive g ~mean ~stddev =
  if mean <= 0. then invalid_arg "Prng.gaussian_positive: mean must be positive";
  let rec draw () =
    let x = gaussian g ~mean ~stddev in
    if x > 0. then x else draw ()
  in
  draw ()

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))

let pick_weighted g ~weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Prng.pick_weighted: empty weights";
  let total = Array.fold_left (fun acc w ->
      if w < 0. then invalid_arg "Prng.pick_weighted: negative weight";
      acc +. w)
      0. weights
  in
  if not (total > 0.) then invalid_arg "Prng.pick_weighted: zero total weight";
  let target = float g total in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
