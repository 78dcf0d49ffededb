(** Feasibility pump: a primal heuristic that hunts for an integer-feasible
    point at the root of the branch-and-bound tree.

    The pump alternates between two projections: round the current LP point
    onto the integer lattice (clamped into the integral part of each
    variable's box), then solve an LP that minimizes a linear distance to
    the rounded point — [+x_j] for variables rounded to their lower
    integral bound, [-x_j] for variables rounded to their upper one — with
    a geometrically decaying tilt toward the true objective so the first
    incumbent is not gratuitously expensive.  If the distance-LP optimum is
    integral on the integer variables it is feasible for the relaxation and
    integral, i.e. a valid incumbent.

    The classic failure mode is cycling: rounding the new LP point
    reproduces an earlier rounding and the loop revisits the same pair
    forever.  Every rounding is hashed into a history set; on a repeat the
    rounding is perturbed deterministically — the [3 + 2*restarts] integer
    variables whose LP values sit furthest from their rounded values are
    flipped one unit toward the LP point — before pumping continues, and a
    round budget bounds the whole loop regardless.

    On structured models the pump frequently converges to a {e near}-fixed
    point: all but a handful of integer variables integral, with the
    distance LP returning the same vertex round after round so that even
    perturbation cannot dislodge it.  Rather than discard that progress,
    {!run} reports the best (fewest fractional integers) LP iterate seen
    as {!Near}; the caller can finish the job cheaply — fix the integral
    majority and branch or dive on the fractional remainder. *)

type outcome =
  | Integral of float array
      (** A point feasible for the relaxation and integral on the integer
          variables: a valid incumbent as-is. *)
  | Near of float array
      (** Best LP iterate seen: feasible for the relaxation, integral on
          all but a few integer variables.  Not an incumbent — a launch
          point for a fixing pass. *)
  | Failed  (** No LP iterate survived (solver failure or empty box). *)

(** [run ~solve ~input ~int_ids ~int_tol ~start ~stop] pumps from the
    relaxation optimum [start]; [Integral] carries a feasible integral
    point, [Near] the best near-integral iterate when the round budget
    (100 distance solves), [stop], or a hard stall (repeated zero-pivot
    rounds) ends the hunt first.  [solve] must solve an arbitrary
    {!Simplex.input}; the pump only varies the objective, never bounds or
    rows. *)
val run :
  solve:(Simplex.input -> Simplex.result) ->
  input:Simplex.input ->
  int_ids:int list ->
  int_tol:float ->
  start:float array ->
  stop:(unit -> bool) ->
  outcome
