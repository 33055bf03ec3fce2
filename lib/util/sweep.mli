(** Sweeps over a sorted axis of segments.

    Schedule checks cut time at every slot boundary and visit each
    elementary segment with the slots that cover it.  When coverage is
    a monotone test of the segment index, each slot covers one range of
    segments; binary search finds the range and one merge pass per
    segment keeps the covering set, instead of testing every slot on
    every segment. *)

val first_true : lo:int -> hi:int -> (int -> bool) -> int
(** The least [k] in [\[lo, hi)] with [p k], for [p] false then true
    over the range; [hi] when there is none. *)

val sort_distinct : float array -> pos:int -> len:int -> int
(** Sorts [a.(pos) .. a.(pos + len - 1)] ascending under
    [Float.compare] and moves one of each value to the front of the
    range; returns the number of distinct values. *)

val iter_active :
  segments:int -> first:int array -> last:int array -> (int -> int array -> int -> unit) -> unit
(** Item [j] is active on segments [first.(j)] to [last.(j)] (on none
    when [first.(j) > last.(j)]; ranges must lie in
    [\[0, segments)]).  [iter_active ~segments ~first ~last f] calls
    [f k active n] for [k = 0 .. segments - 1] in order, where
    [active.(0 .. n - 1)] are the items active on segment [k],
    ascending.  [active] is reused between calls. *)
