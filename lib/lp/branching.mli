(** Branching-variable selection for the branch-and-bound tree.

    Three strategies share one selector:

    - {!Most_fractional} picks the integer variable whose LP value is
      furthest from an integer — cheap, but blind to the objective.
    - {!Pseudocost} keeps, per variable and branching direction, the
      running mean {e per-unit objective degradation} observed when that
      branch's child LP was solved, and scores candidates by the product
      of the estimated down- and up-degradations.  During a warmup window
      of the first 8 tree nodes the most fractional candidates
      are probed by strong branching — bounded warm-started dual-simplex
      solves of both children — and the probe results seed the
      pseudocosts.  Until a variable has any statistics it borrows the
      global mean; with no statistics at all the selector degrades to
      most-fractional.
    - {!Reliability} is pseudocost branching with a per-variable trigger
      instead of a global window: any candidate whose up or down branch
      has fewer than {!reliability_threshold} observations is considered
      unreliable and is re-probed (up to 8 probes per node),
      regardless of how many nodes the tree has processed. *)

type strategy = Most_fractional | Pseudocost | Reliability

type t

(** [create ~nvars ~strategy] makes an empty pseudocost table over
    variable ids [0..nvars-1]. *)
val create : nvars:int -> strategy:strategy -> t

(** Observations with fewer samples than this per direction make a
    variable "unreliable" under {!Reliability} (SCIP's eta-rel idea). *)
val reliability_threshold : int

(** Degradation recorded for a branch whose child LP is infeasible: a
    large finite stand-in for "prunes immediately". *)
val infeasible_degradation : float

(** [observe t ~var ~up ~frac ~degradation] records that branching [var]
    (whose LP value had fractional part [frac]) in direction [up] degraded
    the parent objective key by [degradation >= 0].  The stored statistic
    is per unit of enforced change: [degradation / frac] for the down
    branch, [degradation / (1 - frac)] for the up branch. *)
val observe : t -> var:int -> up:bool -> frac:float -> degradation:float -> unit

(** [stats t ~var] is [((ndown, mean_down), (nup, mean_up))]: the
    observation count and mean per-unit degradation for each branching
    direction of [var].  The means are always finite and non-negative. *)
val stats : t -> var:int -> (int * float) * (int * float)

(** Total observations folded in so far. *)
val observations : t -> int

(** [most_fractional int_ids tol x] is the id of the integer variable
    furthest from integrality (at least [tol] away), or [-1] if all are
    integral — the strategy-independent fallback, also used by dives. *)
val most_fractional : int list -> float -> float array -> int

(** [select t ~int_ids ~tol ~x ~nodes ~probe] picks the branching
    variable for the LP solution [x], or [-1] when [x] is integral on
    [int_ids].  [nodes] is the number of tree nodes processed so far
    (drives the {!Pseudocost} warmup window).  [probe j xv] strong-branches
    candidate [j] at LP value [xv] and returns the observed objective-key
    degradations [(down, up)] — [None] when the probe hit an iteration or
    time budget; probe results are folded into the pseudocost table. *)
val select :
  t ->
  int_ids:int list ->
  tol:float ->
  x:float array ->
  nodes:int ->
  probe:(int -> float -> float option * float option) ->
  int
