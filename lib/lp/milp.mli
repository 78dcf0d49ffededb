(** Mixed-integer linear programming by LP-based branch-and-bound.

    The solver runs best-bound branch-and-bound over the bounded-variable
    simplex of {!Simplex}, and every solve runs one pipeline of four
    phases: [root] solves the root LP; [strengthen] appends {!Cuts}'
    Gomory mixed-integer and knapsack-cover cutting planes; [heuristics]
    runs the {!Fpump} feasibility pump, pump-and-fix when the pump stalls
    near-integral, and a dive-and-fix only when neither left an
    incumbent; [tree] branches by {!Branching}'s reliability rule,
    probing at most as many candidates as [node_limit] has nodes left
    (at most 8).  The first two end the solve early when their LP is
    integral (or the root LP has no optimum).  A feasible plan is almost
    always returned together with the LP lower bound and the resulting
    optimality gap.

    Every branch-and-bound node carries its parent's optimal basis, and
    the node LP is reoptimized by the dual simplex instead of solved from
    scratch; {!Simplex.solve} falls back to a cold solve whenever the
    warm path struggles.

    Every LP, root or node, is solved by {!Simplex.solve} on the model
    as built, with the root cuts appended after [strengthen].  Integer
    values are judged with a fixed tolerance of [1e-6].

    Every LP of a solve, from the root LP to the last node, runs under
    the one deadline [time_limit] sets: the simplex checks it at each
    pivot, and the phases check it between LPs.  A solve overshoots its
    budget by the longest stretch of work between two checks, such as
    one LP's set-up or one round of cut separation.

    The search runs on the calling domain, one node at a time, so a
    solve that [time_limit] does not cut short is deterministic: the
    same model and options give the same [x], [nodes] and
    [lp_iterations], whatever else the process is running.  Parallelism
    lives one level up, where a pool runs whole solves on separate
    domains. *)

(** Compatibility shim with one constructor: the solver has a single
    simplex engine and ignores this value.  It exists only because
    [perfbench/replay.ml] passes [options.core] to {!relax}; delete it
    together with that line. *)
type core = Sparse

type options = {
  node_limit : int;        (** maximum branch-and-bound nodes (default 5000) *)
  time_limit : float;
      (** wall-clock budget in seconds on {!Clock} since the solve began,
          [infinity] = none.  A solve stopped by it before any incumbent
          reports {!Status.Time_limit}; one stopped during the root LP
          also has an empty [relax_x]. *)
  gap_tol : float;
      (** relative-gap tolerance (default [1e-6]).  The tree search
          stops as soon as the incumbent is within [gap_tol] of the least
          open node's bound, before [node_limit] or [time_limit] binds;
          the solve is then reported {!Status.Optimal} with that gap.  A
          solve that ends on [node_limit] or [time_limit] is reported
          {!Status.Optimal} when its final gap is at most [gap_tol], and
          {!Status.Feasible} otherwise, so {!Status.Optimal} means
          exactly "final gap at most [gap_tol]" *)
  core : core;  (** ignored; see {!core} *)
}

val default_options : options

type result = {
  status : Status.t;
  x : float array;         (** best integer point found (empty if none) *)
  relax_x : float array;
  (** root LP relaxation optimum, before cuts (empty when the root LP
      did not solve to optimality) — lets callers run rounding
      heuristics against the relaxation without re-solving it *)
  obj : float;             (** its objective, user direction *)
  bound : float;           (** proven bound on the optimum, user direction *)
  gap : float;             (** relative gap between [obj] and [bound] *)
  nodes : int;             (** branch-and-bound nodes explored *)
  cuts : int;              (** cutting planes appended at the root *)
  lp_iterations : int;
      (** total simplex iterations, each simplex run counted once: a node
          whose LP strong branching already solved adds nothing when it is
          popped *)
}

(** [solve m] solves the model, honouring integrality marks on variables. *)
val solve : ?options:options -> Model.t -> result

(** [relax m] solves the LP relaxation only.  [core] is ignored. *)
val relax : ?core:core -> Model.t -> Simplex.result

(** [integral ?tol m x] is true when all integer-marked variables of [m]
    take integer values in [x]. *)
val integral : ?tol:float -> Model.t -> float array -> bool
