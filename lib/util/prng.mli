(** Deterministic pseudo-random number generation.

    Experiments must be reproducible bit-for-bit across runs and machines,
    so we avoid [Stdlib.Random] (whose algorithm changed across OCaml
    releases) and implement splitmix64, a small, well-studied generator
    with 64 bits of state.  Every consumer of randomness in this project
    receives an explicit [t]; there is no hidden global state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] initialises a generator from an integer seed.  Equal
    seeds yield identical streams. *)

val copy : t -> t
(** [copy g] is an independent generator that will produce the same
    future stream as [g]. *)

val state : t -> int64
(** The full 64-bit internal state.  Together with {!set_state} this
    makes a generator checkpointable: persisting [state g] and later
    restoring it continues the exact stream, which durable serving
    relies on for bit-identical crash recovery. *)

val set_state : t -> int64 -> unit
(** Overwrite [g]'s state in place (restore into an existing handle). *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of the remainder of [g]'s stream.  Used to
    give sub-components their own streams without coupling draw counts. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  @raise Invalid_argument
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)].  [bound] must be
    positive and finite. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)].  @raise Invalid_argument if [hi < lo]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate via the Marsaglia polar method. *)

val gaussian_positive : t -> mean:float -> stddev:float -> float
(** Normal deviate resampled until strictly positive; used for flow
    volumes drawn from N(10,3) as in the paper, where a non-positive
    volume would be meaningless.  @raise Invalid_argument if [mean <= 0]. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element.  @raise Invalid_argument on empty array. *)

val pick_weighted : t -> weights:float array -> int
(** [pick_weighted g ~weights] returns index [i] with probability
    proportional to [weights.(i)].  Weights must be non-negative with a
    positive sum.  @raise Invalid_argument otherwise. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
