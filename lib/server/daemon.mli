(** The HTTP planning server: a long-lived front-end over
    {!Service.Pool}, turning the NDJSON batch engine into a network
    service.  Dependency-free — Unix sockets, threads, and a poll(2)
    stub only.

    Routes:
    - [POST /solve] — one {!Service.Job} JSON spec in the body; answers
      the same result line [etransform batch] would print (plus a
      trailing newline).  Replies [400] on a malformed spec, and [503]
      with [Retry-After] when the pool queue is full ({!Service.Pool.try_submit}
      backpressure — the reactor never blocks on a full queue).
    - [POST /batch] — an NDJSON body streamed through the pool with a
      sliding window bounded by the queue capacity; the response is
      chunked, one result line per job in input order, and lines start
      flowing while the request body is still being received.  A body
      that overruns [max_body] or breaks chunk framing after the stream
      started ends it by closing the connection.
    - [POST /sweep] — one job spec plus a ["grid"] member
      ({!Service.Sweep}); the response is chunked NDJSON, one line per
      grid point in grid order as each completes, closed by a
      cost-vs-resilience Pareto frontier line.  Replies [400] on a
      malformed spec or oversized grid, and — before any stream bytes —
      [503] with [Retry-After] when the pool queue is full, matching
      [/solve].
    - [GET /cache/<fingerprint>] — the peer-transfer endpoint of the
      tiered plan cache: answers the {!Cluster.Codec}-encoded outcome
      from the {e local} tiers only (memory + disk, so probes never fan
      back out to peers), or 404 on a miss.
    - [POST /gossip] — one cluster digest exchange: installs the
      sender's Bloom digest and answers with this node's own
      ({!Cluster.Node.gossip_receive}).  404 unless [create] was given
      a [node].
    - [GET /healthz] — liveness plus pool shape as a JSON object.
    - [GET /metrics] — the {!Service.Metrics} registry in Prometheus
      text format: HTTP requests by route/status, job outcomes, solve
      and queue latency histograms, live queue depth, cache
      hits/misses, per-tier cache lookups
      ([etransform_cache_lookups_total{tier,result}]), disk-store
      occupancy ([etransform_cache_disk_bytes], when a disk tier is
      configured), connection counts by state, reactor buffer-pool
      occupancy.

    Connections are multiplexed by the event-driven {!Reactor}: each
    accepted socket becomes a fiber on the readiness loop, parsing
    through per-connection pooled buffers and answering through a
    batched writer; solves run on the pool's domains and wake the fiber
    through the reactor's self-pipe.  HTTP/1.1 keep-alive (including
    pipelined requests) between requests; connections idle past
    [idle_timeout] are evicted (408 when no response was in flight);
    connections beyond [max_conns] are answered [503] and closed.

    Shutdown is graceful: {!request_stop} (signal-safe) closes the
    listener and idle connections immediately, gives in-flight requests
    up to [drain_timeout] seconds, then force-closes stragglers. *)

type t

(** [create ~pool ()] binds and listens ([port = 0] picks an ephemeral
    port — read it back with {!port}).  [resolve] maps NDJSON estate
    kinds beyond the bundled datasets (the binary passes
    [Harness.Line_jobs.resolve]).  [metrics] defaults to a fresh
    registry; pass your own to share it with other subsystems.  The
    pool's queue depth and cache counters are registered as gauges on
    the metrics registry here.

    Reactor shape: [max_conns] caps live connections (default 4096,
    beyond it new connections get 503), [idle_timeout] seconds evicts
    stalled reads/writes (default 30, [0.] disables).  {!run} serves
    from one readiness loop in the calling thread.

    [node] enables the cluster surface: [/gossip] answers exchanges,
    the node's digest provider is pointed at everything [/cache] can
    serve (LRU + disk keys), and {!run} flushes the store's index
    snapshot after the drain.  The node's lifecycle (gossip thread,
    close) stays with the caller. *)
val create :
  ?addr:string ->
  ?port:int ->
  ?backlog:int ->
  ?limits:Http.limits ->
  ?drain_timeout:float ->
  ?resolve:Service.Batch.resolver ->
  ?metrics:Service.Metrics.t ->
  ?max_conns:int ->
  ?idle_timeout:float ->
  ?node:Cluster.Node.t ->
  pool:Service.Pool.t ->
  unit ->
  t

val port : t -> int
val metrics : t -> Service.Metrics.t

(** Serve until {!request_stop}.  Returns only after the drain
    completed: listener closed, in-flight requests finished (or the
    drain deadline cut them off), every connection closed.  The pool is
    NOT shut down — it belongs to the caller. *)
val run : t -> unit

(** Ask {!run} to stop accepting and drain.  Async-signal-safe, so it
    can be called from a [SIGINT]/[SIGTERM] handler or another thread.
    Idempotent. *)
val request_stop : t -> unit

(** [true] once {!request_stop} was called. *)
val draining : t -> bool
