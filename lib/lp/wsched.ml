type 'a next = Work of float * 'a | Done | Stopped

type 'a t = {
  workers : int;
  deques : 'a Wsdeque.t array;
  locks : Mutex.t array;
  pending : int Atomic.t;  (* queued + in flight *)
  queued : int Atomic.t;
  nsteals : int Atomic.t;
  stop_flag : bool Atomic.t;
  idle_m : Mutex.t;
  idle_c : Condition.t;
  nidlers : int Atomic.t;
  steal_order : thief:int -> round:int -> int;
}

let create ~workers ?steal_order () =
  let workers = max 1 workers in
  let steal_order =
    match steal_order with
    | Some f -> f
    | None -> fun ~thief ~round -> (thief + 1 + round) mod workers
  in
  {
    workers;
    deques = Array.init workers (fun _ -> Wsdeque.create ());
    locks = Array.init workers (fun _ -> Mutex.create ());
    pending = Atomic.make 0;
    queued = Atomic.make 0;
    nsteals = Atomic.make 0;
    stop_flag = Atomic.make false;
    idle_m = Mutex.create ();
    idle_c = Condition.create ();
    nidlers = Atomic.make 0;
    steal_order;
  }

let workers t = t.workers
let stopped t = Atomic.get t.stop_flag
let pending t = Atomic.get t.pending
let queued t = Atomic.get t.queued
let steals t = Atomic.get t.nsteals

(* A parked worker holds [idle_m] from registration through
   [Condition.wait], and re-checks the wake conditions in between, so a
   signal sent under [idle_m] can never be lost. *)
let wake_one t =
  if Atomic.get t.nidlers > 0 then begin
    Mutex.lock t.idle_m;
    Condition.signal t.idle_c;
    Mutex.unlock t.idle_m
  end

let wake_all t =
  Mutex.lock t.idle_m;
  Condition.broadcast t.idle_c;
  Mutex.unlock t.idle_m

let norm t who = ((who mod t.workers) + t.workers) mod t.workers

let push t ~who ~key v =
  let who = norm t who in
  Atomic.incr t.pending;
  Atomic.incr t.queued;
  Mutex.lock t.locks.(who);
  Wsdeque.push t.deques.(who) ~key v;
  Mutex.unlock t.locks.(who);
  wake_one t

let pop_own t who =
  Mutex.lock t.locks.(who);
  let r = Wsdeque.pop_min t.deques.(who) in
  Mutex.unlock t.locks.(who);
  r

let try_pop t ~who =
  let who = norm t who in
  match pop_own t who with
  | Some _ as r ->
      Atomic.decr t.queued;
      r
  | None ->
      let rec sweep round =
        if round > t.workers - 2 then None
        else begin
          let v = norm t (t.steal_order ~thief:who ~round) in
          if v = who then sweep (round + 1)
          else if Mutex.try_lock t.locks.(v) then begin
            let r = Wsdeque.pop_max t.deques.(v) in
            Mutex.unlock t.locks.(v);
            match r with
            | Some _ ->
                Atomic.decr t.queued;
                Atomic.incr t.nsteals;
                r
            | None -> sweep (round + 1)
          end
          else sweep (round + 1)
        end
      in
      sweep 0

(* Failed sweeps before parking on the condition variable. *)
let park_after = 4

let next t ~who =
  let who = norm t who in
  let rec go fails =
    if Atomic.get t.stop_flag then Stopped
    else
      match try_pop t ~who with
      | Some (k, v) -> Work (k, v)
      | None ->
          if Atomic.get t.pending = 0 then Done
          else if fails < park_after then begin
            Domain.cpu_relax ();
            go (fails + 1)
          end
          else begin
            Mutex.lock t.idle_m;
            Atomic.incr t.nidlers;
            let wake_now =
              Atomic.get t.queued > 0
              || Atomic.get t.stop_flag
              || Atomic.get t.pending = 0
            in
            if not wake_now then Condition.wait t.idle_c t.idle_m;
            Atomic.decr t.nidlers;
            Mutex.unlock t.idle_m;
            go 0
          end
  in
  go 0

let done_one t = if Atomic.fetch_and_add t.pending (-1) = 1 then wake_all t

let stop t =
  Atomic.set t.stop_flag true;
  wake_all t

let min_key t =
  let best = ref None in
  Array.iteri
    (fun i q ->
      Mutex.lock t.locks.(i);
      (match Wsdeque.min_key q with
      | Some k -> (
          match !best with Some b when b <= k -> () | _ -> best := Some k)
      | None -> ());
      Mutex.unlock t.locks.(i))
    t.deques;
  !best
