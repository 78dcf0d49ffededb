(** NDJSON front-end: one job spec per input line, one result per output
    line, in input order.

    Job spec schema (all fields except ["estate"] optional):
    {v
    {"id":"j1",
     "estate":{"kind":"dataset","name":"enterprise1","scale":1.0},
     "dr":false, "eos":false, "fixed_charges":false,
     "omega":0.5, "reserve":0.3, "dr_server_cost":100.0,
     "milp":{"nodes":24,"time":60.0,"gap":0.005},
     "deadline_s":10.0, "degrade":true}
    v}

    Estate kinds ["dataset"] (fields [name], [scale], and for
    [name = "synthetic"] also [seed], [groups], [targets]) are resolved
    here; any other kind is offered to the [resolve] hook, which maps the
    estate object to a canonical key plus a builder — this is how the
    harness plugs line estates in without the service depending on it.

    Keys the schema does not name are ignored, at the top level and
    inside ["milp"] and ["scenario"]: they change neither the decoded
    job nor its fingerprint.  This includes the retired ["milp"]
    keys ["branching"], ["pump"], ["cuts"] and ["workers"], so older
    clients that still send them get the default solver, which searches
    each MILP on one domain.

    Blank lines and lines starting with [#] are skipped. *)

type resolver = Json.t -> (string * (unit -> Etransform.Asis.t)) option

(** [job_of_json ?resolve j] decodes one job spec.  Unknown estate kinds
    without a resolver (or resolver miss) are errors, as are missing or
    ill-typed fields and ["dr": true] with ["fixed_charges": true] (the
    DR planner prices no fixed charges). *)
val job_of_json : ?resolve:resolver -> Json.t -> (Job.t, string) result

(** [job_of_line ?resolve line] parses then decodes. *)
val job_of_line : ?resolve:resolver -> string -> (Job.t, string) result

(** The fields of one NDJSON result line, in output order: id,
    fingerprint, code, cache hit/miss, spans, then — when a plan exists —
    cost summary, solver status and the placement vector, then the
    reason a job degraded or failed.  Front-ends that add fields (sweep
    points) append to this list. *)
val result_fields : Pool.result -> (string * Json.t) list

(** [result_to_line r] renders {!result_fields} as one JSON object — the
    line [etransform batch] prints, [/solve] answers and [/batch]
    streams. *)
val result_to_line : Pool.result -> string

(** [run_lines pool ~read_line ~write] streams a batch through the
    pool's in-order window ({!Pool.stream}): [read_line] yields input
    lines ([None] = end of input), blank lines and [#] comments are
    skipped, and every other line takes one slot — a job, or, when it
    fails to decode, an ["invalid"] result line that keeps its place
    (the batch keeps going).  Each completed line (without trailing
    newline) is handed to [write] in input order.  At most the pool's
    queue capacity is outstanding at once, so memory is bounded by the
    window, not by the input.

    [driver] defaults to {!Pool.blocking}: the loop reads a line,
    submits it, and writes whatever the head of the window has
    finished; it waits on the head ticket only when the window is full
    or the input has ended.  So when [read_line] stalls (an operator
    typing specs, a slow pipe), a finished result is written when the
    next line or the end of input arrives.  The HTTP [/batch] route
    passes an event-loop driver instead, which also writes results
    while it is parked reading the request body.

    If [write] raises (e.g. [EPIPE] on a closed pipe) the stream winds
    down — reading stops, every submitted ticket resolves — and the
    first write exception is re-raised.  Exceptions from [read_line]
    propagate.  Returns [(ok, degraded, failed)] counts, where [failed]
    includes invalid lines. *)
val run_lines :
  ?resolve:resolver ->
  ?driver:Pool.driver ->
  Pool.t ->
  read_line:(unit -> string option) ->
  write:(string -> unit) ->
  int * int * int

(** [run pool ic oc] is {!run_lines} over channels: one result line per
    job is written (and flushed) to [oc] in input order.  A read error
    on [ic] ends the input and is reported as a final ["invalid"] line
    after every result before it. *)
val run : ?resolve:resolver -> Pool.t -> in_channel -> out_channel -> int * int * int
