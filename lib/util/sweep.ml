let first_true ~lo ~hi p =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p mid then hi := mid else lo := mid + 1
  done;
  !lo

(* Heapsort of [a.(pos) .. a.(pos + len - 1)], specialised to floats:
   [Array.sort] is polymorphic and boxes both floats of every
   comparison. *)
let sort_range a ~pos ~len =
  let rec sift i n =
    let c = (2 * i) + 1 in
    if c < n then begin
      let c =
        if c + 1 < n && Float.compare a.(pos + c + 1) a.(pos + c) > 0 then c + 1 else c
      in
      if Float.compare a.(pos + c) a.(pos + i) > 0 then begin
        let x = a.(pos + i) in
        a.(pos + i) <- a.(pos + c);
        a.(pos + c) <- x;
        sift c n
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for last = len - 1 downto 1 do
    let x = a.(pos) in
    a.(pos) <- a.(pos + last);
    a.(pos + last) <- x;
    sift 0 last
  done

let sort_distinct a ~pos ~len =
  sort_range a ~pos ~len;
  let n = ref 0 in
  for i = pos to pos + len - 1 do
    if !n = 0 || Float.compare a.(i) a.(pos + !n - 1) <> 0 then begin
      a.(pos + !n) <- a.(i);
      incr n
    end
  done;
  !n

let iter_active ~segments ~first ~last f =
  let items = Array.length first in
  let live j = first.(j) <= last.(j) in
  (* Items bucketed by their first segment, ascending within a bucket. *)
  let bucket_start = Array.make (segments + 1) 0 in
  for j = 0 to items - 1 do
    if live j then bucket_start.(first.(j) + 1) <- bucket_start.(first.(j) + 1) + 1
  done;
  for k = 1 to segments do
    bucket_start.(k) <- bucket_start.(k) + bucket_start.(k - 1)
  done;
  let bucket = Array.make bucket_start.(segments) 0 in
  let fill = Array.copy bucket_start in
  for j = 0 to items - 1 do
    if live j then begin
      bucket.(fill.(first.(j))) <- j;
      fill.(first.(j)) <- fill.(first.(j)) + 1
    end
  done;
  let active = ref (Array.make items 0) and spare = ref (Array.make items 0) in
  let n = ref 0 in
  for k = 0 to segments - 1 do
    (* Drop the items that ended; merge in the ones that start here. *)
    let cur = !active and next = !spare in
    let w = ref 0 and b = ref bucket_start.(k) in
    let b_end = bucket_start.(k + 1) in
    for a = 0 to !n - 1 do
      let j = cur.(a) in
      if last.(j) >= k then begin
        while !b < b_end && bucket.(!b) < j do
          next.(!w) <- bucket.(!b);
          incr w;
          incr b
        done;
        next.(!w) <- j;
        incr w
      end
    done;
    while !b < b_end do
      next.(!w) <- bucket.(!b);
      incr w;
      incr b
    done;
    active := next;
    spare := cur;
    n := !w;
    f k next !n
  done
