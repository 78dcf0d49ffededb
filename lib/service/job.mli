(** Planning jobs: one consolidation (or DR) scenario to solve, plus the
    solver knobs and service policies that govern the solve.

    A job is the unit of work of the {!Pool}: it names an estate (a bundled
    dataset or an inline builder registered by the caller), whether DR is
    planned, the model options, MILP budget overrides, and the service
    policies — per-job deadline and the degradation switch.

    Jobs carry a canonical {!fingerprint} so the {!Cache} can serve repeated
    and swept scenarios from memory: the fingerprint covers every field that
    changes the resulting plan (estate key, DR flag, model options, MILP
    budgets) and excludes fields that only affect delivery ([id],
    [deadline_s], [degrade]).  It is order-insensitive by construction —
    fields are serialized in one fixed order regardless of how the job was
    specified — so permuted NDJSON keys hash identically. *)

type estate =
  | Dataset of {
      name : string;          (** enterprise1 | florida | federal | synthetic *)
      scale : float;
      seed : int;             (** synthetic only *)
      groups : int;           (** synthetic only *)
      targets : int;          (** synthetic only *)
    }
  | Inline of {
      key : string;
          (** canonical description of the estate; the cache trusts it to
              fully determine [build]'s result *)
      build : unit -> Etransform.Asis.t;
    }

(** MILP budget overrides; [None] keeps
    {!Etransform.Solver.default_milp_options}.  [gap_tol] sets when a
    solve that stops on a node or time limit is still reported optimal
    (see {!Lp.Milp.options}); it does not stop the search early. *)
type milp_overrides = {
  node_limit : int option;
  time_limit : float option;
  gap_tol : float option;
}

val no_overrides : milp_overrides

(** Failure-scenario overrides mapped onto {!Scenario.Failure.default};
    [None] keeps the default.  [max_latency_ms] is the stage-1 latency
    budget ({!Etransform.Lp_builder.options}).  All-[None]
    ({!no_scenario}) means the paper's model, and — unlike the MILP
    overrides — contributes nothing to the fingerprint, so legacy job
    fingerprints are unchanged. *)
type scenario_overrides = {
  radius_km : float option;
  max_concurrent : int option;
  warning_s : float option;
  link_mb_s : float option;
  max_latency_ms : float option;
}

val no_scenario : scenario_overrides

type t = {
  id : string;                    (** client tag echoed in results *)
  estate : estate;
  dr : bool;                      (** plan disaster recovery too *)
  economies_of_scale : bool;
  fixed_charges : bool;
      (** never with [dr]: the DR planner prices no fixed charges *)
  omega : float option;           (** business-impact spread *)
  reserve : float option;         (** DR stage-1 capacity reservation *)
  dr_server_cost : float option;  (** override ζ on the built estate *)
  milp : milp_overrides;
  scenario : scenario_overrides;  (** richer DR failure model / latency budget *)
  deadline_s : float option;
      (** wall-clock budget from submission; an expired deadline degrades
          (or fails) the job instead of starting the MILP *)
  degrade : bool;
      (** on MILP failure or expired deadline, fall back to the greedy
          planner and tag the result degraded instead of failing *)
}

(** [v estate] builds a job with library defaults: non-DR, plain §III model
    (no economies of scale, no fixed charges, no spread), default MILP
    budgets, no deadline, degradation on.  Raises [Invalid_argument] on
    [~dr:true] with [~fixed_charges:true]. *)
val v :
  ?id:string ->
  ?dr:bool ->
  ?economies_of_scale:bool ->
  ?fixed_charges:bool ->
  ?omega:float ->
  ?reserve:float ->
  ?dr_server_cost:float ->
  ?milp:milp_overrides ->
  ?scenario:scenario_overrides ->
  ?deadline_s:float ->
  ?degrade:bool ->
  estate -> t

(** [fl f] is [Printf.sprintf "%h" f] byte for byte: the exact
    hexadecimal text of [f], the form every float takes in a canonical
    key. *)
val fl : float -> string

(** Canonical key of the estate alone (the [Dataset] fields or the
    [Inline] key). *)
val estate_key : estate -> string

(** Content address of the job: hex digest of the canonical serialization.
    Equal fingerprints mean "same plan, safe to serve from cache". *)
val fingerprint : t -> string

(** Materialize the estate, applying [dr_server_cost] when set. *)
val build_estate : t -> Etransform.Asis.t

(** The job's {!Scenario.Failure.spec}: defaults plus the scenario
    overrides (ignoring [max_latency_ms], which lives in the stage-1
    builder). *)
val failure_spec : t -> Scenario.Failure.spec

(** Solver budgets: {!Etransform.Solver.default_milp_options} plus the
    job's overrides. *)
val milp_options : t -> Lp.Milp.options
