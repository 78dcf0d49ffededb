(** Concurrent planning pool: a bounded job queue drained by workers,
    fronted by the content-addressed {!Cache} and instrumented through
    {!Trace}.

    Submitting a {!Job.t} yields a ticket; {!await} blocks until the job
    ran.  A job whose plan a local tier (memory or disk) holds is
    answered at submission, on the submitting thread, so local hits never
    reach a worker.  A worker takes every other job, checks every tier
    again (a duplicate queued behind its twin is still a hit), then
    solves with {!Etransform.Solver.consolidate} or
    {!Etransform.Dr_planner.plan}.  Per-job deadlines bound the wall clock
    spent from submission: an expired deadline skips the MILP, and a
    deadline that arrives mid-queue caps the solver's time budget to the
    time remaining.

    Degradation: with [job.degrade] (the default), an expired deadline or a
    solver exception falls back to the greedy planner
    ({!Etransform.Greedy.plan} / [plan_dr], the same stage-2 path
    {!Etransform.Dr_planner} uses when the MILP finds no incumbent) and the
    result is tagged [Degraded] rather than failing the batch.  Only clean
    [Solved] outcomes from a full (deadline-uncapped) solver budget enter
    the cache, so a degraded or budget-starved plan is never served to a
    later identical job.

    Every job is deterministic given its spec, so a pool with any worker
    count returns results identical to a sequential run; only completion
    order (and hence trace interleaving) differs. *)

type code =
  | Solved           (** full engine result (fresh or cached) *)
  | Degraded         (** greedy fallback after deadline/solver failure *)
  | Failed           (** no plan: [degrade] off, or the fallback failed too *)

type result = {
  job : Job.t;
  fingerprint : string;
  outcome : Etransform.Solver.outcome option;  (** [None] iff [Failed] *)
  code : code;
  reason : string option;  (** why the job degraded or failed *)
  cache_hit : bool;
  cache_tier : string option;
      (** which tier answered a hit: ["memory"], ["disk"] or ["peer"];
          [None] on misses *)
  queue_s : float;         (** submission → start of execution *)
  build_s : float;         (** estate + model construction *)
  solve_s : float;         (** engine time (0 on cache hits) *)
}

type t

type ticket

(** [create ()] starts [workers] workers on [workers] domains in
    total: worker 0 is a systhread in the calling domain (the reactor's,
    in the server) and workers [1 .. workers-1] each spawn a domain.
    Queued jobs go first to idle domain workers: worker 0 takes one only
    when the queue holds more jobs than there are idle domain workers
    (so at [workers = 1] it takes every job).  [workers = 0] runs jobs
    inline in the submitting thread — fully sequential and deterministic
    in submission order.  [queue_capacity] bounds the backlog;
    submission blocks when full.  [cache_capacity] sizes the in-memory
    plan cache; [tiers] adds backing cache tiers behind it (disk store,
    peer lookup — see {!Tiered}). *)
val create :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?tiers:Tiered.tier list ->
  ?trace:Trace.t ->
  unit -> t

val workers : t -> int
val queue_capacity : t -> int
val cache : t -> Etransform.Solver.outcome Cache.t

(** The full tiered cache front ({!cache} is just its memory tier). *)
val tiered : t -> Tiered.t

(** The trace sink the pool was created with ({!Trace.null} by default) —
    lets layered drivers (sweeps above all) emit their own summary events
    into the same stream. *)
val trace : t -> Trace.t

(** Jobs currently waiting in the queue (excludes the ones workers are
    executing).  Always [0] on inline ([workers = 0]) pools. *)
val queue_depth : t -> int

(** [submit t job] answers a local hit at once, or else enqueues the job
    (blocking while the queue is full).  Raises [Invalid_argument] after
    {!shutdown}. *)
val submit : t -> Job.t -> ticket

(** [try_submit t job] is [submit] without the blocking: [None] when the
    job is a local miss and the queue is full right now — the HTTP
    front-end turns that into a [503] instead of stalling its accept
    loop.  A local hit is answered even on a full queue (the ticket comes
    back resolved), and inline pools always accept. *)
val try_submit : t -> Job.t -> ticket option

(** [await ticket] blocks until the job completed. *)
val await : ticket -> result

(** [poll ticket] is [Some result] iff the job already completed; never
    blocks. *)
val poll : ticket -> result option

(** [on_complete ticket f] runs [f result] once the job completes:
    immediately (in the calling thread) when it already has, otherwise
    from the thread that resolves the ticket — a worker, possibly on
    another domain, so [f] must be quick and thread-safe.  This is the
    completion hook the event-driven HTTP reactor uses to get woken
    through its self-pipe instead of parking a thread in {!await}.  Hooks run outside the
    ticket lock, in registration order; exceptions are swallowed. *)
val on_complete : ticket -> (result -> unit) -> unit

(** {2 In-order streams} *)

(** How a {!stream} submits and waits.  The default submits with
    {!submit} and waits with {!await} on the head ticket; an event loop
    supplies its own parks instead. *)
type driver = {
  admit : Job.t -> ticket option;
      (** Submit a job; [None] when the pool cannot take it right now. *)
  wait : ticket option -> unit;
      (** Park until the head ticket may have resolved — or, given
          [None] (nothing of the stream's own in flight), until the pool
          may have room.  Spurious returns are fine: the stream
          re-polls. *)
  reading : (unit -> unit) -> unit;
      (** Receives the stream's flush before the first read; a driver
          whose reads block calls it while parked to write out every
          result the head has resolved. *)
}

(** [stream t ~read ~emit] is the in-order, window-bounded loop every
    streaming front-end runs on.  [read] yields the next slot ([None] at
    end of input): [(k, Ok job)] is admitted to the pool, [(k, Error
    msg)] (an input that failed to decode) keeps its place in the order.
    [emit k out] receives each slot in input order as soon as it and
    all its predecessors are done.  At most {!queue_capacity} slots are
    outstanding.

    If [emit] raises, the stream stops reading, waits out every ticket
    it admitted without emitting, and re-raises the first exception.
    Exceptions from [read] and the driver propagate at once. *)
val stream :
  ?driver:driver ->
  t ->
  read:(unit -> ('k * (Job.t, string) Stdlib.result) option) ->
  emit:('k -> (result, string) Stdlib.result -> unit) ->
  unit

(** [run_batch t jobs] is {!stream} over a list: results in submission
    order, plus a ["batch"] trace summary. *)
val run_batch : t -> Job.t list -> result list

(** Refuse further submissions, let the workers serve every job already
    queued, and join them.  Idempotent. *)
val shutdown : t -> unit

(** [clamp_workers ~what n] caps a worker-count flag at
    [Domain.recommended_domain_count ()], printing a one-line [what]-tagged
    warning on stderr when it clamps.  A pool of [n] workers runs [n]
    domains, the caller's included, so the cap keeps one domain per
    core; oversubscribing only adds scheduler thrash — front-end flags
    ([--workers]) should pass through here before reaching a pool or
    {!Lp.Milp.options}. *)
val clamp_workers : what:string -> int -> int

(** [with_pool f] runs [f] over a fresh pool and always shuts it down. *)
val with_pool :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?tiers:Tiered.tier list ->
  ?trace:Trace.t ->
  (t -> 'a) -> 'a
