(** Streaming parameter sweeps with cost-vs-resilience Pareto frontiers.

    A sweep fans one base job across a parameter grid — failure radius,
    concurrent failures, early-warning window, business-impact spread ω,
    latency budget — through the {!Pool} as ordinary fingerprinted jobs:
    repeated and overlapping sweeps hit the plan cache point by point,
    and a sweep point whose knobs coincide with the plain model shares
    the plain job's fingerprint outright.

    Results stream to the caller in grid order as each point (and its
    predecessors) completes; the non-dominated cost-vs-resilience
    frontier is computed at the end, with every point scored under the
    single strictest spec the grid reaches so resilience values are
    comparable across the sweep. *)

type grid = {
  radius_km : float option list;
  max_concurrent : int list;
  warning_s : float option list;
  omega : float option list;
  max_latency_ms : float option list;
}
(** One list per swept axis; an empty list keeps the base job's value. *)

val empty_grid : grid

(** Expansion cap enforced by {!request_of_json}. *)
val max_points : int

val grid_points : grid -> Job.t -> int

(** Decode the ["grid"] member: each axis an array of numbers (or [null]
    for "unconstrained").  Missing axes keep the base job's value. *)
val grid_of_json : Json.t -> (grid, string) result

(** Decode a sweep request: a {!Batch} job spec plus a ["grid"] member.
    Rejects grids beyond {!max_points}. *)
val request_of_json :
  ?resolve:Batch.resolver -> Json.t -> (Job.t * grid, string) result

(** [expand base grid] is the grid's cartesian product in one fixed axis
    order: [(tag, job)] per point, the tag naming the axis values
    (["r=400;c=2;w=-;om=0.5;l=-"]).  Axis values matching the plain
    model normalize to "absent" so those points fingerprint like plain
    jobs. *)
val expand : Job.t -> grid -> (string * Job.t) list

(** The strictest failure spec the grid reaches — the common yardstick
    every point's resilience is scored under. *)
val scoring_spec : Job.t -> grid -> Scenario.Failure.spec

type ctx
(** Per-sweep scoring context: the estate, its synthetic geography, and
    the scoring spec, built lazily once per sweep. *)

val ctx : Job.t -> grid -> ctx

type point = {
  tag : string;
  result : Pool.result;
  cost : float option;        (** total monthly cost, when a plan exists *)
  resilience : float option;  (** {!Scenario.Failure.score} under the ctx spec *)
}

val point : ctx -> tag:string -> Pool.result -> point

(** One NDJSON line per point: the {!Batch.result_to_line} fields plus
    ["tag"] and ["resilience"]. *)
val point_line : point -> string

type summary = {
  points : int;
  cache_hits : int;
  frontier : Scenario.Pareto.point list;
  wall_s : float;
}

val summarize : ?wall_s:float -> point list -> summary

(** Terminal NDJSON line: the frontier plus sweep totals. *)
val frontier_line : summary -> string

(** Emit the ["sweep"] trace event ({!Metrics.observe_trace} listens). *)
val emit_trace : Pool.t -> summary -> unit

(** [run pool base grid ~f] streams the points through the pool's
    in-order window ({!Pool.stream}, with [driver] as given), calls [f]
    per point in grid order as results complete, and returns the summary
    (also traced via {!emit_trace}). *)
val run :
  ?driver:Pool.driver ->
  Pool.t -> Job.t -> grid -> f:(point -> unit) -> summary
