(** Event-driven reactor core: one readiness loop (epoll(7) via a C
    stub on Linux, a poll(2) scan elsewhere) driving per-connection
    fibers built on OCaml 5 effects.

    Handlers are written in plain blocking style against {!read} and
    {!write_some}; when a call would block, the fiber performs a [Wait]
    effect and its continuation parks until the loop reports the fd
    ready.  The loop runs in the thread that called {!run}, and
    continuations are only ever resumed there; every parked
    continuation is resumed exactly once ([Ready], [Timeout], or
    [Stopped] during drain), so [Fun.protect] finalizers in handlers
    always run.

    Connections borrow their read and write-staging buffers from a
    shared free-list pool at accept and return them at close: the
    steady state allocates no buffers.

    Cross-thread completions (a {!Service.Pool} worker finishing a job)
    call {!notify}; the wake-up travels through the loop's self-pipe
    and resumes the fiber if it is waiting via {!wait_signal} (or a
    {!read} with an [on_signal] hook installed).  Wake-ups are
    advisory: resumed fibers re-check their condition, so duplicate or
    stale notifies are harmless.

    Slow-loris protection: every blocking read or write carries an
    idle deadline; expiry raises {!Idle_timeout} in the fiber.  A
    listener burst over [max_conns] hands the surplus fd to the
    [reject] callback (the daemon answers 503 and closes). *)

type t

(** A connection owned by the loop.  Valid only inside its handler
    fiber, except for {!notify} which is thread-safe. *)
type conn

(** Raised in fibers interrupted by the drain. *)
exception Aborted

(** Raised when a read/write idles past the limit. *)
exception Idle_timeout

(** [create ()] builds the reactor (the loop starts in {!run}).  At
    most [max_conns] live connections (default 4096); [idle_timeout]
    seconds before a stalled read/write is evicted (default 30, [0.]
    disables); [drain_timeout] seconds in-flight requests get after
    {!request_stop} (default 10); [buf_size] bytes per pooled buffer
    (default 16 KiB). *)
val create :
  ?max_conns:int ->
  ?idle_timeout:float ->
  ?drain_timeout:float ->
  ?buf_size:int ->
  unit ->
  t

(** [run t ~listener handler] serves until {!request_stop}: the loop
    runs in the calling thread, accepts from [listener] (made
    non-blocking here), and runs [handler] as each accepted
    connection's fiber.  [reject] receives (and owns) fds accepted
    beyond [max_conns].  Returns after the drain: listener closed,
    every fiber finished, every connection closed.  A reactor runs
    once. *)
val run :
  t ->
  listener:Unix.file_descr ->
  ?reject:(Unix.file_descr -> unit) ->
  (conn -> unit) ->
  unit

(** Stop accepting and drain.  Callable from any thread or a signal
    handler; idempotent.  Idle keep-alive connections close
    immediately; in-flight requests get [drain_timeout] seconds, then
    their fibers are resumed with [Stopped] (surfacing as {!Aborted}). *)
val request_stop : t -> unit

val stopping : t -> bool

(** {2 Fiber-side operations} — only valid inside a handler. *)

val fd : conn -> Unix.file_descr

(** The connection's pooled buffers, for [Http.conn_of_source ~buf] and
    [Http.out_of_sink ~buf]. *)
val in_buf : conn -> Bytes.t

val out_buf : conn -> Bytes.t

(** [read conn buf off len] — the byte source: reads, parking the fiber
    on would-block.  Returns 0 at EOF.  Raises {!Idle_timeout} past the
    idle deadline, {!Aborted} when stopped. *)
val read : conn -> Bytes.t -> int -> int -> int

(** [write_some conn buf off len] — the byte sink: writes some bytes,
    parking on would-block.  Same exceptions as {!read}. *)
val write_some : conn -> Bytes.t -> int -> int -> int

(** Mark the fiber as inside (outside) a request.  Idle connections
    (not in a request) are closed immediately at drain; busy ones get
    the drain window.  Feeds the busy/idle metrics. *)
val set_in_request : conn -> bool -> unit

(** [set_on_signal conn (Some f)] makes blocked {!read}s signal-aware:
    a {!notify} wakes the read, runs [f ()] in the fiber, and retries.
    The /batch route uses this to stream completed results out while
    parked on request-body input.  Reset to [None] when the request
    ends. *)
val set_on_signal : conn -> (unit -> unit) option -> unit

(** Thread-safe wake-up (e.g. from a pool worker's completion hook).
    Latches if the fiber is not currently waiting for a signal — the
    next {!wait_signal} returns immediately. *)
val notify : conn -> unit

(** Park until a {!notify} arrives (or consume a latched one).  Raises
    {!Aborted} when stopped.  May return spuriously — callers re-check
    their condition in a loop. *)
val wait_signal : conn -> unit

(** Park for [d] seconds (a {!notify} may end it early). *)
val sleep : conn -> float -> unit

(** {2 Introspection} *)

(** Open connections. *)
val live : t -> int

(** Connections currently inside a request. *)
val busy : t -> int

(** Buffer pool [(free, created)] counts. *)
val pool_stats : t -> int * int

val idle_timeout : t -> float
val max_conns : t -> int
