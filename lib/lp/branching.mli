(** Branching-variable selection for the branch-and-bound tree:
    reliability branching.

    The table keeps, per variable and branching direction, the mean
    {e per-unit objective degradation} observed when that branch's
    child LP was solved, and scores candidates by the product of the
    estimated down- and up-degradations.  A candidate with fewer than 4
    observations in either direction is unreliable and is probed by
    strong branching first: bounded warm-started dual-simplex solves of
    both children, whose results are folded into the table.  Until a
    variable has any statistics it borrows the global mean; with no
    statistics at all the selector falls back to the most fractional
    candidate.

    The caller owns the probes: {!Milp} sizes them to the nodes its
    budget has left and hands the chosen candidate's probe LPs to its
    children as their node LPs. *)

type t

(** [create ~nvars] makes an empty pseudocost table over variable ids
    [0..nvars-1]. *)
val create : nvars:int -> t

(** Degradation recorded for a branch whose child LP is infeasible: a
    large finite stand-in for "prunes immediately". *)
val infeasible_degradation : float

(** [observe t ~var ~up ~frac ~degradation] records that branching [var]
    (whose LP value had fractional part [frac]) in direction [up] degraded
    the parent objective key by [degradation >= 0].  The stored statistic
    is per unit of enforced change: [degradation / frac] for the down
    branch, [degradation / (1 - frac)] for the up branch. *)
val observe : t -> var:int -> up:bool -> frac:float -> degradation:float -> unit

(** [most_fractional int_ids tol x] is the id of the integer variable
    furthest from integrality (at least [tol] away), or [-1] if all are
    integral; the dives and the root integrality test use it. *)
val most_fractional : int list -> float -> float array -> int

(** [select t ~budget ~int_ids ~tol ~x ~probe] picks the branching
    variable for the LP solution [x], or [-1] when [x] is integral on
    [int_ids].  [probe j xv] strong-branches candidate [j] at [xv] and
    returns the objective-key degradations [(down, up)] — [None] when
    the probe hit an iteration or time budget or was not run.  [select]
    calls it at most once per candidate, [min 8 budget] times in all. *)
val select :
  t ->
  budget:int ->
  int_ids:int list ->
  tol:float ->
  x:float array ->
  probe:(int -> float -> float option * float option) ->
  int
