(** Plan polishing by single-group reassignments and pairwise swaps, scored
    with the exact evaluator.

    The MILP objective linearizes the volume-discount curve; a short local
    search against {!Evaluate} recovers most of the gap, and it also repairs
    plans produced under node/time budgets.

    Each candidate move is first screened against incremental state: per
    (group, site) WAN and latency-penalty costs, per-site primary loads and
    backup pools.  The screen reads only the two to four sites a move
    touches, so it costs O(1), or O(sites) to re-take a shared pool's max.
    It drops a candidate only when the exact check is bound to reject it: a
    touched site over capacity, or a cost change no better than [-1e-6]
    plus a bound on float rounding.  Every other candidate goes to the
    exact check — {!Placement.validate}, the omega spread and
    {!Evaluate.plan} — which stays the only source of truth for accepting a
    move.  The plans and move counts are therefore those of the plain
    hill-climb that prices every candidate with {!Evaluate.plan}. *)

(** [improve asis plan] hill-climbs until a fixed point or [max_rounds];
    returns the improved plan and the number of accepted moves.  Moves that
    would violate capacity, allowed-DC, shared-risk or secondary-distinct
    constraints are never proposed.  [may_place group dc] adds external
    admissibility (the side constraints' move rule,
    {!Lp_builder.may_place}); [omega] enforces the business-impact spread
    on primaries. *)
val improve :
  ?max_rounds:int -> ?swaps:bool -> ?may_place:(int -> int -> bool) ->
  ?omega:float -> Asis.t -> Placement.t -> Placement.t * int
