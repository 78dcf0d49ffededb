(* Load generation against a running server: an open loop (requests due
   on a fixed schedule, timed from when they were due) over two
   connections, and a closed loop (next request only after the previous
   answer) over one. *)

let now = Span.now

type sample = {
  idx : int;        (** request index in the workload's sequence *)
  due : float;      (** scheduled send time *)
  sent : float;
  finished : float;
  status : int;
  body : string;
}

let latency_ms s = (s.finished -. s.due) *. 1000.0
let lateness_ms s = (s.sent -. s.due) *. 1000.0

(* ------------------------------------------------------------ statistics *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank [q]-quantile of [a], and how many samples lie beyond it. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  let i = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)) in
  (s.(i), n - 1 - i)

let median a = fst (quantile a 0.5)

(* A percentile is reported only with at least this many samples beyond. *)
let min_beyond = 10

let min_samples q = int_of_float (Float.ceil (float (min_beyond + 1) /. (1.0 -. q)))

(* Median over consecutive windows of [quantile q], each window just large
   enough for [min_beyond] samples beyond: a tail estimate that a single
   stall cannot move by itself. *)
let windowed_quantile a q =
  let w = min_samples q in
  let k = Array.length a / w in
  if k = 0 then None
  else
    let per =
      Array.init k (fun i ->
          fst (quantile (Array.sub a (i * w) (if i = k - 1 then Array.length a - (i * w) else w)) q))
    in
    Some (median per, k)

let connections = 2

(* Past this many unanswered requests on a connection the generator
   waits (and falls behind schedule) instead of writing more: the server
   answers a connection's requests one at a time, so an unbounded
   pipeline could fill both socket buffers and deadlock. *)
let max_pipelined = 256

(* [open_loop] sends request k (k >= 0, global index [first + k]) at
   [t0 + k / rate] until [duration] has elapsed, whether or not earlier
   answers arrived: requests are pipelined on [connections] keep-alive
   connections, request k on connection k mod [connections].  One thread
   does all sending and receiving, waiting in [select] until the next
   request is due or an answer arrives. *)
let open_loop ~port ~rate ~duration ~first ~(request : int -> string) =
  let conns = Array.init connections (fun _ -> Client.connect port) in
  Fun.protect ~finally:(fun () -> Array.iter Client.close conns) @@ fun () ->
  let n = int_of_float (Float.round (rate *. duration)) in
  let t0 = now () +. 0.01 in
  let pending = Array.init connections (fun _ -> Queue.create ()) in
  let out = ref [] and answered = ref 0 and next = ref 0 in
  let drain c =
    let rec go () =
      if not (Queue.is_empty pending.(c)) then
        match Client.take_response conns.(c) with
        | None -> ()
        | Some (status, body) ->
            let idx, due, sent = Queue.pop pending.(c) in
            out := { idx; due; sent; finished = now (); status; body } :: !out;
            incr answered;
            go ()
    in
    go ()
  in
  while !answered < n do
    let t = now () in
    let due = t0 +. (float !next /. rate) in
    if !next < n && due <= t && Queue.length pending.(!next mod connections) < max_pipelined
    then begin
      let c = !next mod connections in
      Client.send conns.(c) (request (first + !next));
      Queue.push (first + !next, due, now ()) pending.(c);
      incr next
    end
    else begin
      let timeout = if !next < n then due -. t else 1.0 in
      let fds = Array.to_list (Array.map Client.fd conns) in
      match Unix.select fds [] [] timeout with
      | ready, _, _ ->
          Array.iteri
            (fun c conn ->
              if List.mem (Client.fd conn) ready then begin
                Client.fill conn;
                drain c
              end)
            conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  let a = Array.of_list !out in
  Array.sort (fun x y -> compare x.idx y.idx) a;
  a

(* ---------------------------------------------------------- calibration *)

(* A fixed slice of allocation-heavy work (hashing, short strings, a
   sort) that takes about 1 ms of CPU.  Run by the generator on the CPU
   the server is pinned to, between requests, its CPU time tracks how
   fast that CPU currently is: on a shared host the same slice takes up
   to twice as long in busy spells, and the server's requests slow down
   with it.  It is timed by this process's own CPU time, so nothing the
   server does (a spinning thread, say) lengthens it. *)
let calibration_slice () =
  let c0 = Sys.time () in
  let h = Hashtbl.create 64 in
  for i = 0 to 2999 do
    Hashtbl.replace h (i land 1023) (string_of_int i)
  done;
  let a = Array.init 2000 (fun i -> (i * 7919) mod 10007) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, a));
  (Sys.time () -. c0) *. 1000.0

(* [closed_loop] sends requests [first] .. [first + count - 1] back to
   back on one connection, stopping early only when [max_duration] has
   passed.  Each answer goes to [on_answer] after it was timed.  Every
   request is timed twice: by the wall clock and by [cpu], a clock of the
   CPU time the server spent on it.  A calibration slice runs before
   every [calib_every]-th request, outside its timing. *)
type closed = {
  wall_ms : float array;
  cpu_ms : float array;
  cal_ms : float array;  (** calibration slices, one every [calib_every] requests *)
  gaps_ms : float array;  (** from an answer to the next send, while it was due *)
  elapsed : float;        (** wall seconds of the whole loop *)
}

let closed_loop ~port ~count ~max_duration ~cpu ~calib_every ~first ~(request : int -> string)
    ~on_answer () =
  let conn = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close conn) (fun () ->
      let t0 = now () in
      let wall = ref [] and used = ref [] and gaps = ref [] and n = ref 0 and last = ref t0 in
      let cal = ref [] in
      while !n < count && now () -. t0 < max_duration do
        if !n mod calib_every = 0 then begin
          cal := calibration_slice () :: !cal;
          last := now ()
        end;
        let req = request (first + !n) in
        let c0 = cpu () in
        let sent = now () in
        let status, body = Client.exchange conn req in
        let finished = now () in
        used := ((cpu () -. c0) *. 1000.0) :: !used;
        wall := ((finished -. sent) *. 1000.0) :: !wall;
        gaps := ((sent -. !last) *. 1000.0) :: !gaps;
        last := finished;
        on_answer (first + !n) status body;
        incr n
      done;
      let arr l = Array.of_list (List.rev !l) in
      {
        wall_ms = arr wall;
        cpu_ms = arr used;
        cal_ms = arr cal;
        gaps_ms = arr gaps;
        elapsed = now () -. t0;
      })



(* [concurrent_loop] keeps one request outstanding on each of [conns]
   keep-alive connections, sending the next request on a connection as
   soon as its answer arrives, until [count] requests were answered or
   [max_duration] has passed.  One thread does all sending and receiving.
   Each request is timed by the wall clock from its send to its answer,
   so the time it spends waiting inside the server counts.  Answers go to
   [on_answer] after the loop, so checking one answer never delays
   reading the other connection's. *)
type concurrent = {
  latency_ms : float array;  (** per request, in completion order *)
  done_at : float array;     (** completion times, in completion order *)
  started : float;
  conc_cal_ms : float array;  (** calibration slices, one every [calib_every] answers *)
}

let concurrent_loop ~port ~conns ~count ~max_duration ~calib_every ~first
    ~(request : int -> string) ~on_answer () =
  let cs = Array.init conns (fun _ -> Client.connect port) in
  Fun.protect ~finally:(fun () -> Array.iter Client.close cs) @@ fun () ->
  let t0 = now () in
  let inflight = Array.make conns None in
  let next = ref 0 in
  let lat = ref [] and fin = ref [] and cal = ref [] and answers = ref [] and answered = ref 0 in
  let launch c =
    if !next < count && now () -. t0 < max_duration then begin
      Client.send cs.(c) (request (first + !next));
      inflight.(c) <- Some (first + !next, now ());
      incr next
    end
  in
  Array.iteri (fun c _ -> launch c) cs;
  while Array.exists Option.is_some inflight do
    let fds = List.filteri (fun c _ -> Option.is_some inflight.(c)) (Array.to_list (Array.map Client.fd cs)) in
    match Unix.select fds [] [] 1.0 with
    | ready, _, _ ->
        Array.iteri
          (fun c conn ->
            match inflight.(c) with
            | Some (idx, sent) when List.mem (Client.fd conn) ready -> (
                Client.fill conn;
                match Client.take_response conn with
                | None -> ()
                | Some (status, body) ->
                    let t = now () in
                    lat := ((t -. sent) *. 1000.0) :: !lat;
                    fin := t :: !fin;
                    inflight.(c) <- None;
                    answers := (idx, status, body) :: !answers;
                    incr answered;
                    if !answered mod calib_every = 0 then cal := calibration_slice () :: !cal;
                    launch c)
            | _ -> ())
          cs
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun (idx, status, body) -> on_answer idx status body) (List.rev !answers);
  let arr l = Array.of_list (List.rev l) in
  { latency_ms = arr !lat; done_at = arr !fin; started = t0; conc_cal_ms = arr !cal }

(* Requests per wall second of a concurrent loop over consecutive blocks
   of [block] completions. *)
let block_rates r block =
  let n = Array.length r.done_at in
  Array.init (max 1 (n / block)) (fun i ->
      let last = min n ((i + 1) * block) - 1 in
      let from = if i = 0 then r.started else r.done_at.((i * block) - 1) in
      float (last + 1 - (i * block)) /. (r.done_at.(last) -. from))
