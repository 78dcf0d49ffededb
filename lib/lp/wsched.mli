(** Work-stealing scheduler: per-worker best-first deques with stealing.

    Each worker owns a {!Wsdeque} (a min-max interval heap).  The owner
    pops its own best item (lowest key); a worker whose deque is empty
    sweeps the other workers in the order given by [steal_order] and
    steals from a victim's {e opposite} end (highest key), so thieves
    take the work the owner would reach last.  Owners lock their own
    deque unconditionally; thieves use [Mutex.try_lock] and simply move
    on under contention, so a steal never blocks a producer.

    Termination is tracked with a [pending] counter (items queued plus
    items popped but not yet {!done_one}): a worker that finds no work
    {e and} sees [pending = 0] knows the whole computation is over, as
    in a tree search that exhausts its frontier.  Idle workers spin
    briefly ([Domain.cpu_relax] between failed steal sweeps, counted per
    worker), then park on a condition variable; pushes wake one sleeper, and the transition of
    [pending] to 0 (or {!stop}) wakes all of them — no busy spin while
    there is genuinely nothing to do.

    The [steal_order] hook exists so tests can script steal
    interleavings deterministically (chaos testing): it maps a thief and
    sweep round to a victim index and defaults to a cyclic sweep
    starting after the thief. *)

type 'a t

type 'a next =
  | Work of float * 'a
  | Done  (** no queued work and nothing in flight *)
  | Stopped
      (** {!stop} was called: workers abandon the queue at once, and the
          remaining keys stay visible to {!min_key}, which is how the
          tree search reports its open bound *)

(** [create ~workers ()] makes a scheduler with [workers] deques
    (clamped to at least 1). *)
val create :
  workers:int ->
  ?steal_order:(thief:int -> round:int -> int) ->
  unit ->
  'a t

val workers : 'a t -> int

(** [push t ~who ~key v] queues [v] on worker [who]'s deque ([who] is
    taken mod [workers]) and wakes a parked worker if any.  Increments
    the pending count. *)
val push : 'a t -> who:int -> key:float -> 'a -> unit

(** Non-blocking: own deque first, then one steal sweep over the other
    workers.  Does not change the pending count (the item is now in
    flight; pair every successful pop with {!done_one}). *)
val try_pop : 'a t -> who:int -> (float * 'a) option

(** Blocking variant of {!try_pop}: spins through a few sweeps, then
    parks until woken.  Every [Work] result must be matched by a
    {!done_one} call after processing (and after pushing any children,
    so [pending] can never dip to 0 while successors exist). *)
val next : 'a t -> who:int -> 'a next

(** Declare one in-flight item finished.  The 1 -> 0 transition of the
    pending count wakes all parked workers so they can observe [Done]. *)
val done_one : 'a t -> unit

(** Request shutdown and wake everyone.  Idempotent. *)
val stop : 'a t -> unit

val stopped : 'a t -> bool

(** Items queued plus items in flight. *)
val pending : 'a t -> int

(** Items currently sitting in deques. *)
val queued : 'a t -> int

(** Number of successful steals so far (diagnostics). *)
val steals : 'a t -> int

(** Smallest key over all deques — after a stop, the best open bound of
    the abandoned frontier. *)
val min_key : 'a t -> float option
