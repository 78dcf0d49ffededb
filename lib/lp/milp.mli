(** Mixed-integer linear programming by LP-based branch-and-bound.

    The solver runs best-bound branch-and-bound over the bounded-variable
    simplex of {!Simplex}.  Before the tree opens the root is worked hard:
    {!Cuts} appends Gomory mixed-integer and knapsack-cover cutting planes
    ([root_cuts]), a dive-and-fix heuristic and the {!Fpump} feasibility
    pump ([pump]) hunt for an early incumbent, and the tree then branches
    under a {!Branching} strategy (pseudocost / reliability with
    strong-branching warmup by default) instead of blind most-fractional
    selection.  A feasible plan is almost always returned together with
    the LP lower bound and the resulting optimality gap.

    With [warm_start] (the default) every branch-and-bound node carries its
    parent's optimal basis and the node LP is reoptimized by the dual
    simplex instead of solved from scratch; the solver falls back to a cold
    solve per node whenever the warm path struggles, so statuses are
    unchanged and objectives agree to solver tolerance.

    Every LP, root or node, is solved by {!Simplex.solve} on the model
    as built.  Integer values are judged with a fixed tolerance of
    [1e-6].

    With [workers > 1] the tree search fans out over that many OCaml 5
    domains under a work-stealing scheduler ({!Wsched}): each domain
    owns a best-first deque, children go to the domain that solved the
    parent (keeping warm-start basis chains local), and an idle domain
    steals a victim's worst open node.  The incumbent is broadcast
    lock-free through an [Atomic] with a monotonic compare-and-set, so
    pruning always uses the freshest bound.  The fan-out is adaptive:
    the search starts sequential and the helper domains are spawned only
    once at least 64 nodes have been processed {e and} that many are
    simultaneously pending — so small trees (the common
    warm-started case) never pay domain spawn costs.  The returned
    solution is still optimal whenever the sequential solver's is, but
    the visit order — and therefore [nodes] and [lp_iterations] — may
    differ run to run.  [workers = 1] is exactly the deterministic
    sequential search.  Requested worker counts beyond
    [Domain.recommended_domain_count ()] are clamped; the effective
    count is reported in [result.workers]. *)

(** Compatibility shim with one constructor: the solver has a single
    simplex engine and ignores this value.  It exists only because
    [perfbench/replay.ml] passes [options.core] to {!relax}; delete it
    together with that line. *)
type core = Sparse

type options = {
  node_limit : int;        (** maximum branch-and-bound nodes (default 5000) *)
  time_limit : float;
      (** CPU-seconds budget ([Sys.time]), [infinity] = none.  Note that
          with [workers > 1] CPU time accumulates across domains, so the
          budget is consumed up to [workers] times faster than wall clock. *)
  gap_tol : float;
      (** relative-gap tolerance for reporting (default [1e-6]).  It does
          not stop the search early: a solve that ends on [node_limit] or
          [time_limit] is reported {!Status.Optimal} when its final gap
          is at most [gap_tol], and {!Status.Feasible} otherwise *)
  dive_first : bool;       (** seed the incumbent by diving at the root *)
  warm_start : bool;
      (** reoptimize node LPs from the parent basis (default [true]) *)
  workers : int;
      (** domains searching the tree (default 1 = sequential) *)
  core : core;  (** ignored; see {!core} *)
  branch_strategy : Branching.strategy;
      (** branching-variable selection (default {!Branching.Reliability}) *)
  pump : bool;
      (** run the {!Fpump} feasibility pump at the root when diving left
          no incumbent (default [true]) *)
  root_cuts : bool;
      (** strengthen the root with {!Cuts} separation rounds before the
          tree opens (default [true]) *)
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
  lp_iterations : int;     (** total simplex iterations *)
  workers : int;
  (** effective worker-domain count after clamping the requested
      [options.workers] to [Domain.recommended_domain_count ()] — the
      observable form of the one-shot stderr clamp warning *)
}

(** [solve m] solves the model, honouring integrality marks on variables.

    [steal_order] is a test seam forwarded to the work-stealing
    scheduler (see {!Wsched.create}): it maps an idle worker and its
    sweep round to the victim it should try to steal from, letting the
    determinism suite script adversarial steal interleavings.  Leave it
    unset for the default cyclic sweep. *)
val solve :
  ?options:options ->
  ?steal_order:(thief:int -> round:int -> int) ->
  Model.t ->
  result

(** [relax m] solves the LP relaxation only.  [core] is ignored. *)
val relax : ?core:core -> Model.t -> Simplex.result

(** [integral ?tol m x] is true when all integer-marked variables of [m]
    take integer values in [x]. *)
val integral : ?tol:float -> Model.t -> float array -> bool
