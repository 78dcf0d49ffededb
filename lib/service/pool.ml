open Etransform

type code = Solved | Degraded | Failed

type result = {
  job : Job.t;
  fingerprint : string;
  outcome : Solver.outcome option;
  code : code;
  reason : string option;
  cache_hit : bool;
  cache_tier : string option;
  queue_s : float;
  build_s : float;
  solve_s : float;
}

type ticket = {
  tm : Mutex.t;
  tc : Condition.t;
  mutable res : result option;
  mutable hooks : (result -> unit) list;
}

type task = {
  tjob : Job.t;
  fingerprint : string;
  submitted : float;
  ticket : ticket;
}

(* Tasks wait in one FIFO queue under [m].  Worker 0 is a systhread in
   the domain that created the pool, and only workers 1.. get domains of
   their own: once a second domain exists every minor collection stops
   the world across both, even when the other domain is only blocked in
   [epoll_wait].  A job worker 0 runs holds the creator's domain (the
   reactor's, in the server) until the systhread tick, so the one
   dealing rule keeps it for overflow: worker 0 takes a queued job only
   when the queue holds more jobs than there are idle domain workers.
   Shutdown serves the whole backlog before the workers exit. *)
type t = {
  workers : int;
  jobs : task Queue.t;
  mutable idle : int;  (* domain workers not running a job *)
  queue_capacity : int;
  m : Mutex.t;
  not_full : Condition.t;
  wake : Condition.t;   (* domain workers park here *)
  wake0 : Condition.t;  (* worker 0 parks here *)
  mutable closed : bool;
  mutable joins : (unit -> unit) list;  (* waits out each worker *)
  tiered : Tiered.t;
  trace : Trace.t;
}

(* ------------------------------------------------------- job execution *)

let solve job asis ~milp =
  let max_latency_ms = job.Job.scenario.Job.max_latency_ms in
  if job.Job.dr then
    (* A spec that is still the paper's model (only a latency budget set,
       say) compiles to no scenario at all, keeping the byte-identical
       default stage-2 path and its local-search polish. *)
    let scenario =
      let spec = Job.failure_spec job in
      if Scenario.Failure.is_default spec then None
      else Some (Scenario.Failure.compile spec asis)
    in
    let options =
      {
        Dr_planner.milp;
        omega = job.Job.omega;
        economies_of_scale = job.Job.economies_of_scale;
        reserve =
          Option.value job.Job.reserve
            ~default:Dr_planner.default_options.Dr_planner.reserve;
        scenario;
        max_latency_ms;
      }
    in
    Dr_planner.plan ~options asis
  else
    let builder =
      {
        Lp_builder.default_options with
        Lp_builder.economies_of_scale = job.Job.economies_of_scale;
        fixed_charges = job.Job.fixed_charges;
        omega = job.Job.omega;
        max_latency_ms;
      }
    in
    Solver.consolidate ~builder ~milp asis

(* The degradation path: the greedy planner is the same stage-2 fallback
   the DR planner leans on when the MILP surrenders; it is fast and always
   feasible on well-formed estates. *)
let greedy_outcome job asis =
  let placement =
    if job.Job.dr then Greedy.plan_dr asis else Greedy.plan asis
  in
  Solver.make_outcome asis placement ~status:Lp.Status.Time_limit ~gap:1.0
    ~nodes:0 ~lp_iterations:0 ~local_moves:0

let code_string = function
  | Solved -> "solved"
  | Degraded -> "degraded"
  | Failed -> "failed"

let trace_job trace r =
  let base =
    [
      ("event", Json.Str "job");
      ("id", Json.Str r.job.Job.id);
      ("fp", Json.Str r.fingerprint);
      ("code", Json.Str (code_string r.code));
      ("cache", Json.Str (if r.cache_hit then "hit" else "miss"));
      ("queue_s", Json.Num r.queue_s);
      ("build_s", Json.Num r.build_s);
      ("solve_s", Json.Num r.solve_s);
    ]
  in
  let tier =
    match r.cache_tier with None -> [] | Some t -> [ ("tier", Json.Str t) ]
  in
  let solver =
    match r.outcome with
    | None -> []
    | Some o ->
        [
          ("status", Json.Str (Lp.Status.to_string o.Solver.milp_status));
          ("gap", Json.Num o.Solver.milp_gap);
          ("nodes", Json.Num (float_of_int o.Solver.nodes));
          ("lp_iterations", Json.Num (float_of_int o.Solver.lp_iterations));
        ]
  in
  let reason =
    match r.reason with None -> [] | Some m -> [ ("reason", Json.Str m) ]
  in
  Trace.emit trace (base @ tier @ solver @ reason)

(* Every ticket's result is built and traced here, whether a worker
   ran the job or a submitter answered it from a local tier. *)
let finish trace task ~queue_s ?outcome ?reason ?tier ~code ~cache_hit
    ~build_s ~solve_s () =
  let r =
    {
      job = task.tjob;
      fingerprint = task.fingerprint;
      outcome;
      code;
      reason;
      cache_hit;
      cache_tier = tier;
      queue_s;
      build_s;
      solve_s;
    }
  in
  trace_job trace r;
  r

let hit trace task ~queue_s (outcome, tier) =
  finish trace task ~queue_s ~outcome ~tier ~code:Solved ~cache_hit:true
    ~build_s:0.0 ~solve_s:0.0 ()

let run_task ~tiered ~trace task =
  let job = task.tjob in
  let queue_s = Lp.Clock.now () -. task.submitted in
  let finish = finish trace task ~queue_s in
  let failed reason =
    finish ~reason ~code:Failed ~cache_hit:false ~build_s:0.0 ~solve_s:0.0 ()
  in
  let degrade_or_fail reason =
    if not job.Job.degrade then failed reason
    else
      match
        let tb = Lp.Clock.now () in
        let asis = Job.build_estate job in
        let build_s = Lp.Clock.now () -. tb in
        (greedy_outcome job asis, build_s)
      with
      | outcome, build_s ->
          finish ~outcome ~reason ~code:Degraded ~cache_hit:false ~build_s
            ~solve_s:0.0 ()
      | exception exn ->
          failed
            (Printf.sprintf "%s; greedy fallback also failed: %s" reason
               (Printexc.to_string exn))
  in
  match Tiered.find tiered task.fingerprint with
  | Some h -> hit trace task ~queue_s h
  | None -> (
      let time_remaining =
        Option.map
          (fun d -> d -. (Lp.Clock.now () -. task.submitted))
          job.Job.deadline_s
      in
      match time_remaining with
      | Some r when r <= 0.0 -> degrade_or_fail "deadline expired before solve"
      | _ -> (
          let milp = Job.milp_options job in
          (* Capping the MILP budget at the time remaining keeps a
             queued-late job from blowing its deadline by the full
             configured budget. *)
          let budget_capped, milp =
            match time_remaining with
            | Some r when r < milp.Lp.Milp.time_limit ->
                (true, { milp with Lp.Milp.time_limit = r })
            | _ -> (false, milp)
          in
          match
            let tb = Lp.Clock.now () in
            let asis = Job.build_estate job in
            let build_s = Lp.Clock.now () -. tb in
            let ts = Lp.Clock.now () in
            let outcome = solve job asis ~milp in
            let solve_s = Lp.Clock.now () -. ts in
            (outcome, build_s, solve_s)
          with
          | outcome, build_s, solve_s ->
              (* A deadline-starved budget can return a greedy/LP-rounded
                 plan tagged Time_limit; caching it under a fingerprint that
                 excludes deadline_s would serve that degraded plan to later
                 full-budget jobs.  Only full-budget solves are cacheable:
                 they alone are deterministic given the job spec.  The
                 capped bit travels down to every tier — the disk store
                 re-refuses it at its own boundary. *)
              Tiered.add tiered ~capped:budget_capped task.fingerprint outcome;
              finish ~outcome ~code:Solved ~cache_hit:false ~build_s ~solve_s
                ()
          | exception exn ->
              degrade_or_fail
                (Printf.sprintf "solver failed: %s" (Printexc.to_string exn))))

(* ---------------------------------------------------------------- pool *)

let resolve ticket r =
  Mutex.lock ticket.tm;
  ticket.res <- Some r;
  let hooks = ticket.hooks in
  ticket.hooks <- [];
  Condition.broadcast ticket.tc;
  Mutex.unlock ticket.tm;
  (* Hooks run outside the ticket lock, on the resolving thread (a
     worker, or the submitter for inline pools and local hits).  A hook
     that raises must not kill the worker. *)
  List.iter (fun f -> try f r with _ -> ()) (List.rev hooks)

let on_complete ticket f =
  Mutex.lock ticket.tm;
  match ticket.res with
  | Some r ->
      Mutex.unlock ticket.tm;
      (try f r with _ -> ())
  | None ->
      ticket.hooks <- f :: ticket.hooks;
      Mutex.unlock ticket.tm

(* Under [m]: the next task for worker [who], or [None] once the pool is
   shut down and nothing is left that this worker should take.  Only a
   push can make [length > idle] true (a domain worker taking a job
   lowers both sides), so a push alone wakes worker 0. *)
let rec take t ~who =
  let n = Queue.length t.jobs in
  if n > (if who = 0 then t.idle else 0) then begin
    if who > 0 then t.idle <- t.idle - 1;
    Condition.signal t.not_full;
    Some (Queue.pop t.jobs)
  end
  else if t.closed then None
  else begin
    Condition.wait (if who = 0 then t.wake0 else t.wake) t.m;
    take t ~who
  end

let worker_loop t who () =
  Mutex.lock t.m;
  let rec loop () =
    match take t ~who with
    | None -> Mutex.unlock t.m
    | Some task ->
        Mutex.unlock t.m;
        let r =
          try run_task ~tiered:t.tiered ~trace:t.trace task
          with exn ->
            (* Last-resort guard: a worker must always fill its ticket. *)
            {
              job = task.tjob;
              fingerprint = task.fingerprint;
              outcome = None;
              code = Failed;
              reason = Some (Printexc.to_string exn);
              cache_hit = false;
              cache_tier = None;
              queue_s = 0.0;
              build_s = 0.0;
              solve_s = 0.0;
            }
        in
        (* Idle again before the ticket resolves, so a submitter woken
           by it finds this worker free for its next job. *)
        if who > 0 then begin
          Mutex.lock t.m;
          t.idle <- t.idle + 1;
          Mutex.unlock t.m
        end;
        resolve task.ticket r;
        Mutex.lock t.m;
        loop ()
  in
  loop ()

let clamp_workers ~what n =
  let avail = Domain.recommended_domain_count () in
  if n > avail then begin
    Printf.eprintf "%s: clamping --workers %d to %d (recommended domain count)\n%!"
      what n avail;
    avail
  end
  else n

let create ?(workers = 2) ?(queue_capacity = 64) ?(cache_capacity = 256)
    ?(tiers = []) ?(trace = Trace.null) () =
  let workers = max 0 workers in
  let t =
    {
      workers;
      jobs = Queue.create ();
      idle = max 0 (workers - 1);
      queue_capacity = max 1 queue_capacity;
      m = Mutex.create ();
      not_full = Condition.create ();
      wake = Condition.create ();
      wake0 = Condition.create ();
      closed = false;
      joins = [];
      tiered = Tiered.create ~tiers ~cache_capacity:(max 0 cache_capacity) ();
      trace;
    }
  in
  if t.workers > 0 then begin
    let th = Thread.create (worker_loop t 0) () in
    let ds =
      List.init (t.workers - 1) (fun i -> Domain.spawn (worker_loop t (i + 1)))
    in
    t.joins <-
      (fun () -> Thread.join th) :: List.map (fun d () -> Domain.join d) ds
  end;
  t

let workers t = t.workers
let queue_capacity t = t.queue_capacity
let cache t = Tiered.lru t.tiered
let tiered t = t.tiered
let trace t = t.trace

let queue_depth t =
  Mutex.lock t.m;
  let n = Queue.length t.jobs in
  Mutex.unlock t.m;
  n

let fresh_task job =
  let ticket =
    { tm = Mutex.create (); tc = Condition.create (); res = None; hooks = [] }
  in
  { tjob = job; fingerprint = Job.fingerprint job;
    submitted = Lp.Clock.now (); ticket }

(* [true] iff the task is in: run inline, answered from a local tier on
   the submitting thread (only local misses are worth a worker), or
   queued — which, when the queue is full, [wait] blocks for. *)
let admit t task ~wait ~what =
  if t.closed then invalid_arg (what ^ ": pool is shut down");
  if t.workers = 0 then begin
    resolve task.ticket (run_task ~tiered:t.tiered ~trace:t.trace task);
    true
  end
  else
    match Tiered.probe t.tiered task.fingerprint with
    | Some h ->
        resolve task.ticket (hit t.trace task ~queue_s:0.0 h);
        true
    | None ->
        Mutex.lock t.m;
        while wait && Queue.length t.jobs >= t.queue_capacity && not t.closed do
          Condition.wait t.not_full t.m
        done;
        if t.closed then begin
          Mutex.unlock t.m;
          invalid_arg (what ^ ": pool is shut down")
        end;
        let room = Queue.length t.jobs < t.queue_capacity in
        if room then begin
          Queue.push task t.jobs;
          Condition.signal t.wake;
          if Queue.length t.jobs > t.idle then Condition.signal t.wake0
        end;
        Mutex.unlock t.m;
        room

let submit t job =
  let task = fresh_task job in
  ignore (admit t task ~wait:true ~what:"Pool.submit");
  task.ticket

let try_submit t job =
  let task = fresh_task job in
  if admit t task ~wait:false ~what:"Pool.try_submit" then Some task.ticket
  else None

let await ticket =
  Mutex.lock ticket.tm;
  while ticket.res = None do
    Condition.wait ticket.tc ticket.tm
  done;
  let r = Option.get ticket.res in
  Mutex.unlock ticket.tm;
  r

let poll ticket =
  Mutex.lock ticket.tm;
  let r = ticket.res in
  Mutex.unlock ticket.tm;
  r

(* ------------------------------------------------------ in-order stream *)

type driver = {
  admit : Job.t -> ticket option;
  wait : ticket option -> unit;
  reading : (unit -> unit) -> unit;
}

let blocking t =
  {
    admit = (fun job -> Some (submit t job));
    wait = Option.iter (fun ticket -> ignore (await ticket));
    reading = ignore;
  }

(* The one in-order window.  Slots enter at the tail as [read] yields
   them (a job is admitted to the pool, an undecodable input keeps its
   place as an [Error]) and leave at the head through [emit], so output
   order is input order whatever order the workers finish in.  At most
   [queue_capacity] slots are outstanding, which bounds memory by the
   window rather than by the input.  Every time the loop would block it
   first flushes whatever the head has resolved.

   If [emit] raises, reading stops, the remaining tickets are waited out
   without emitting, and the first exception is re-raised — every ticket
   this stream admitted has resolved by the time it returns. *)
let stream ?driver t ~read ~emit =
  let d = match driver with Some d -> d | None -> blocking t in
  let window = max 1 t.queue_capacity in
  let pending = Queue.create () in
  let failure = ref None in
  let emit k out =
    if !failure = None then try emit k out with exn -> failure := Some exn
  in
  let rec flush () =
    match Queue.peek_opt pending with
    | None -> ()
    | Some (k, slot) -> (
        match
          match slot with
          | Error msg -> Some (Error msg)
          | Ok ticket -> Option.map Result.ok (poll ticket)
        with
        | None -> ()
        | Some out ->
            ignore (Queue.pop pending);
            emit k out;
            flush ())
  in
  (* After [flush] the head, if any, is an unresolved ticket. *)
  let wait () =
    d.wait (Option.map (fun (_, slot) -> Result.get_ok slot)
              (Queue.peek_opt pending));
    flush ()
  in
  let rec admit k job =
    match d.admit job with
    | Some ticket -> Queue.push (k, Ok ticket) pending
    | None ->
        wait ();
        admit k job
  in
  let rec fill () =
    flush ();
    if Queue.length pending >= window then begin
      wait ();
      fill ()
    end
    else
      match if !failure = None then read () else None with
      | Some (k, Ok job) ->
          admit k job;
          fill ()
      | Some (k, Error msg) ->
          Queue.push (k, Error msg) pending;
          fill ()
      | None -> ()
  in
  d.reading flush;
  fill ();
  while not (Queue.is_empty pending) do
    wait ()
  done;
  Option.iter raise !failure

let run_batch t jobs =
  let t0 = Lp.Clock.now () in
  let acc = ref [] in
  stream t
    ~read:(Seq.to_dispenser (Seq.map (fun j -> ((), Ok j)) (List.to_seq jobs)))
    ~emit:(fun () -> Result.iter (fun r -> acc := r :: !acc));
  let results = List.rev !acc in
  let count p = Json.Num (float_of_int (List.length (List.filter p results))) in
  Trace.emit t.trace
    [
      ("event", Json.Str "batch");
      ("jobs", Json.Num (float_of_int (List.length jobs)));
      ("solved", count (fun r -> r.code = Solved));
      ("degraded", count (fun r -> r.code = Degraded));
      ("failed", count (fun r -> r.code = Failed));
      ("cache_hits", count (fun r -> r.cache_hit));
      ("wall_s", Json.Num (Lp.Clock.now () -. t0));
    ];
  results

let shutdown t =
  Mutex.lock t.m;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.not_full;
  Condition.broadcast t.wake;
  Condition.broadcast t.wake0;
  Mutex.unlock t.m;
  if not was_closed then begin
    (* Workers finish everything already queued (every accepted ticket
       resolves), then find the queue empty and exit. *)
    List.iter (fun join -> join ()) t.joins;
    t.joins <- []
  end

let with_pool ?workers ?queue_capacity ?cache_capacity ?tiers ?trace f =
  let t = create ?workers ?queue_capacity ?cache_capacity ?tiers ?trace () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
