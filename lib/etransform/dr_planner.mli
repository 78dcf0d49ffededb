(** Scalable integrated consolidation + DR planning.

    The faithful joint MILP of {!Dr_builder} carries O(M N^2) linearization
    variables, which outgrows the repo's simplex and branch-and-bound
    quickly.  This planner
    decomposes the problem:

    + stage 1 places primaries with the §III model, a business-impact
      spread, and a configurable capacity reservation for future backup
      pools;
    + stage 2 optimally chooses secondaries given the primaries — with
      primaries fixed, shared pools linearize exactly as
      G_b >= sum over groups with primary a of S_i Y_ib, an O(M N) MILP;
    + a joint local search ({!Solver.polish} with stage 1's side
      constraints, over the full estate) then polishes both decisions
      against the exact evaluator, keeping the pins, forbids, latency
      budget and omega spread of the primaries.

    When stage 2 ends without an incumbent, greedy secondaries over the
    same pool rules serve; while its gap exceeds 5% they compete with
    it.  If neither fits, the reservation is raised and both stages
    rerun.  On small instances the result is checked against the joint
    model in the test suite. *)

(** A failure scenario compiled down to target indices.  [events] lists
    the failure events the plan must survive: each event is the set of
    target DCs that fail together (a correlated region, or several
    uncorrelated sites under multi-failure planning).  Pools are sized
    per event — every group whose primary is inside an event fails over
    at once — and a backup site that fails in {e every} event taking out
    the group's primary (i.e. inside the primary's correlated region) is
    excluded outright.  [evac_mb] bounds the data each primary->backup link can
    evacuate inside an early-warning window (bandwidth x window, in MB);
    [None] drops the evacuation rows.  An empty [events] array (or an
    absent scenario) means each site fails alone — the paper's model.

    Scenarios are typically produced by the [scenario] library's
    [Failure.compile], which derives events from DC geography. *)
type scenario = {
  events : int list array;
  evac_mb : float option;
}

type options = {
  omega : float option;          (** business-impact spread for primaries *)
  economies_of_scale : bool;     (** stage-1 space on the discount curve *)
  reserve : float;               (** initial capacity fraction kept for pools *)
  milp : Lp.Milp.options;
  scenario : scenario option;
      (** richer failure model for stage 2.  When set, the joint local
          search is skipped: it cannot see event or evacuation
          constraints *)
  max_latency_ms : float option;
      (** stage-1 latency budget (see {!Lp_builder.options}) *)
}

val default_options : options

val plan : ?options:options -> Asis.t -> Solver.outcome

(** [secondary_model ?scenario asis primary] is stage 2's MILP for the
    fixed [primary] sites, with its [Y_i_b] variables by group and
    target ([None] where [b] cannot back up group [i]). *)
val secondary_model :
  ?scenario:scenario ->
  Asis.t ->
  int array ->
  Lp.Model.t * Lp.Model.var option array array

(** [joint_plan asis] solves the faithful §IV MILP of {!Dr_builder}
    directly (small instances only), with [builder]'s side constraints and
    cost terms on the primaries, and serves its decoded plan without a
    polish. *)
val joint_plan :
  ?builder:Lp_builder.options -> ?milp:Lp.Milp.options -> Asis.t ->
  Solver.outcome
