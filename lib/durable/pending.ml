module Repair = Dcn_resilience.Repair

let obs_shed =
  Dcn_obs.Registry.counter ~help:"events shed by the bounded pending queue"
    "serve.shed"

type 'a t = {
  queue : 'a Queue.t;
  capacity : int;
  shed_policy : Repair.shed_policy;
}

let create ~capacity ~policy =
  if capacity < 1 then invalid_arg "Pending.create: capacity must be >= 1";
  { queue = Queue.create (); capacity; shed_policy = policy }

let length t = Queue.length t.queue
let capacity t = t.capacity
let policy t = t.shed_policy

type 'a admission = Enqueued | Shed of 'a

let offer t item =
  if Queue.length t.queue < t.capacity then begin
    Queue.add item t.queue;
    Enqueued
  end
  else begin
    Dcn_obs.Registry.incr obs_shed;
    match t.shed_policy with
    | Repair.Shed_newest -> Shed item
    | Repair.Shed_oldest ->
      let victim = Queue.pop t.queue in
      Queue.add item t.queue;
      Shed victim
  end

let pop_all t =
  let items = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  items
