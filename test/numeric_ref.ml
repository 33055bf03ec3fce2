(* Independent numeric optimiser used as a reference in tests.

   Solves the convex program underlying (P1) in execution-time space:

     minimise    sum_i  h_i * w_i^alpha * tau_i^(1 - alpha)
     subject to  sum_{i in S_c} tau_i <= len_c      for each constraint c
                 0 < tau_i < span_i

   (tau_i = w_i / s_i; constraints are the per-link interval-demand
   conditions).  Log-barrier interior-point method with Newton steps —
   deliberately different machinery from the combinatorial algorithms it
   checks.  Every iterate is strictly feasible, so the result is a true
   upper bound on the optimum, and the barrier's duality gap bounds its
   excess: the outer loop stops once that gap is below 1e-10 of the
   energy. *)

type item = { volume : float; span : float; hops : int }

type constraint_row = { length : float; members : int list }

let solve ~alpha ~items ~constraints =
  let items = Array.of_list items in
  let n = Array.length items in
  let rows = Array.of_list constraints in
  let coef i = float_of_int items.(i).hops *. (items.(i).volume ** alpha) in
  let span i = items.(i).span in
  let energy tau =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (coef i *. (tau.(i) ** (1. -. alpha)))
    done;
    !acc
  in
  let slack tau c =
    c.length -. List.fold_left (fun acc i -> acc +. tau.(i)) 0. c.members
  in
  let strictly_feasible tau =
    Array.for_all (fun c -> slack tau c > 0.) rows
    && Array.for_all Fun.id (Array.mapi (fun i x -> x > 0. && x < span i) tau)
  in
  (* Barrier objective t * energy - sum of logs of every slack. *)
  let barrier t tau =
    let acc = ref (t *. energy tau) in
    Array.iter (fun c -> acc := !acc -. log (slack tau c)) rows;
    Array.iteri (fun i x -> acc := !acc -. log x -. log (span i -. x)) tau;
    !acc
  in
  (* Strictly feasible start: every execution time a common fraction of
     its span, small enough to leave slack in every row. *)
  let s0 =
    Array.fold_left
      (fun acc c ->
        let need = List.fold_left (fun a i -> a +. span i) 0. c.members in
        if need > 0. then Float.min acc (c.length /. need) else acc)
      1. rows
  in
  let tau = Array.init n (fun i -> 0.5 *. s0 *. span i) in
  let m = float_of_int (Array.length rows + (2 * n)) in
  let t = ref (m /. Float.max 1e-12 (energy tau)) in
  (* Newton's method on the barrier objective for each t. *)
  let centre t =
    let rec step k =
      let g = Array.make n 0. and h = Array.make_matrix n n 0. in
      for i = 0 to n - 1 do
        let x = tau.(i) and u = span i -. tau.(i) in
        g.(i) <- (t *. (1. -. alpha) *. coef i *. (x ** -.alpha)) -. (1. /. x) +. (1. /. u);
        h.(i).(i) <-
          (t *. alpha *. (alpha -. 1.) *. coef i *. (x ** (-.alpha -. 1.)))
          +. (1. /. (x *. x)) +. (1. /. (u *. u))
      done;
      Array.iter
        (fun c ->
          let s = slack tau c in
          List.iter
            (fun i ->
              g.(i) <- g.(i) +. (1. /. s);
              List.iter (fun j -> h.(i).(j) <- h.(i).(j) +. (1. /. (s *. s))) c.members)
            c.members)
        rows;
      (* Solve h d = -g by Gaussian elimination with partial pivoting. *)
      let d = Array.map (fun x -> -.x) g in
      for col = 0 to n - 1 do
        let piv = ref col in
        for r = col + 1 to n - 1 do
          if Float.abs h.(r).(col) > Float.abs h.(!piv).(col) then piv := r
        done;
        let tmp = h.(col) in
        h.(col) <- h.(!piv);
        h.(!piv) <- tmp;
        let tmp = d.(col) in
        d.(col) <- d.(!piv);
        d.(!piv) <- tmp;
        for r = col + 1 to n - 1 do
          let f = h.(r).(col) /. h.(col).(col) in
          for j = col to n - 1 do
            h.(r).(j) <- h.(r).(j) -. (f *. h.(col).(j))
          done;
          d.(r) <- d.(r) -. (f *. d.(col))
        done
      done;
      for r = n - 1 downto 0 do
        for j = r + 1 to n - 1 do
          d.(r) <- d.(r) -. (h.(r).(j) *. d.(j))
        done;
        d.(r) <- d.(r) /. h.(r).(r)
      done;
      let slope = Array.fold_left ( +. ) 0. (Array.mapi (fun i gi -> gi *. d.(i)) g) in
      (* Newton decrement small: centred. *)
      if -.slope > 1e-12 && k < 200 then begin
        let here = barrier t tau in
        let try_at a = Array.mapi (fun i x -> x +. (a *. d.(i))) tau in
        let rec search a =
          if a < 1e-20 then None
          else
            let cand = try_at a in
            if strictly_feasible cand && barrier t cand <= here +. (0.25 *. a *. slope) then
              Some cand
            else search (a /. 2.)
        in
        match search 1. with
        | Some cand ->
          Array.blit cand 0 tau 0 n;
          step (k + 1)
        | None -> ()
      end
    in
    step 0
  in
  (* Outer loop: the barrier's duality gap is m / t; stop when it is a
     1e-10 fraction of the energy. *)
  while m /. !t > 1e-10 *. energy tau do
    centre !t;
    t := !t *. 10.
  done;
  centre !t;
  energy tau

(* Per-link interval-demand constraints for a routed instance: for every
   link, for every window [release, deadline] drawn from the flows on
   that link, the flows living inside must fit. *)
let p1_energy ~alpha inst ~routing =
  let flows = Dcn_core.Instance.flow_array inst in
  let items =
    Array.to_list
      (Array.map
         (fun (f : Dcn_flow.Flow.t) ->
           {
             volume = f.volume;
             span = Dcn_flow.Flow.span_length f;
             hops = List.length (routing f.id);
           })
         flows)
  in
  let link_members = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : Dcn_flow.Flow.t) ->
      List.iter
        (fun l ->
          let prev = try Hashtbl.find link_members l with Not_found -> [] in
          Hashtbl.replace link_members l (i :: prev))
        (routing f.id))
    flows;
  let constraints = ref [] in
  Hashtbl.iter
    (fun _l members ->
      let rels = List.map (fun i -> flows.(i).Dcn_flow.Flow.release) members in
      let deads = List.map (fun i -> flows.(i).Dcn_flow.Flow.deadline) members in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if b > a then begin
                let inside =
                  List.filter
                    (fun i ->
                      flows.(i).Dcn_flow.Flow.release >= a -. 1e-12
                      && flows.(i).Dcn_flow.Flow.deadline <= b +. 1e-12)
                    members
                in
                if inside <> [] then
                  constraints := { length = b -. a; members = inside } :: !constraints
              end)
            (List.sort_uniq compare deads))
        (List.sort_uniq compare rels))
    link_members;
  solve ~alpha ~items ~constraints:!constraints

(* Single-processor speed scaling (for the YDS tests): one "link". *)
let ssp_energy ~alpha jobs =
  let jobs = Array.of_list jobs in
  let items =
    Array.to_list
      (Array.map
         (fun (j : Dcn_speed_scaling.Job.t) ->
           { volume = j.weight; span = j.deadline -. j.release; hops = 1 })
         jobs)
  in
  let constraints = ref [] in
  let rels = Array.to_list (Array.map (fun (j : Dcn_speed_scaling.Job.t) -> j.release) jobs) in
  let deads =
    Array.to_list (Array.map (fun (j : Dcn_speed_scaling.Job.t) -> j.deadline) jobs)
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if b > a then begin
            let inside = ref [] in
            Array.iteri
              (fun i (j : Dcn_speed_scaling.Job.t) ->
                if j.release >= a -. 1e-12 && j.deadline <= b +. 1e-12 then
                  inside := i :: !inside)
              jobs;
            if !inside <> [] then
              constraints := { length = b -. a; members = !inside } :: !constraints
          end)
        (List.sort_uniq compare deads))
    (List.sort_uniq compare rels);
  solve ~alpha ~items ~constraints:!constraints
