(** Structured JSONL trace sink for the planning service.

    Every event is one JSON object on one line, so both shell pipelines and
    the test suite can consume the stream.  The pool emits one ["job"]
    event per completed job (spans: queue wait, estate/model build, solve;
    counters: B&B nodes, LP iterations; cache hit/miss; degradation) and
    one ["batch"] summary per batch.  Emission is thread-safe — workers
    and submitters on several domains share one sink. *)

type t

(** Drops every event. *)
val null : t

(** Writes (and flushes) one line per event to the channel. *)
val to_channel : out_channel -> t

(** Accumulates lines in memory, for tests. *)
val memory : unit -> t

(** [observer f] calls [f fields] synchronously on every event instead of
    serializing it — the hook {!Metrics.observe_trace} plugs into.  [f]
    runs on the emitting thread (a worker, or a submitter answering a
    local hit) and must be thread-safe. *)
val observer : ((string * Json.t) list -> unit) -> t

(** [tee a b] emits every event to both sinks ([null] operands collapse
    away).  Lets a pool keep its JSONL trace while a metrics registry
    listens in. *)
val tee : t -> t -> t

(** The accumulated JSONL text of a {!memory} sink ("" otherwise). *)
val contents : t -> string

(** [emit t fields] writes [fields] as one JSON object line, prefixed with
    a monotonically increasing ["seq"] number. *)
val emit : t -> (string * Json.t) list -> unit
