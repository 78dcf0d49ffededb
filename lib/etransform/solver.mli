(** The eTransform planning engine: model construction, MILP solve, and
    exact-cost polishing, end to end.

    [consolidate] mirrors the paper's non-DR algorithm (§III); DR planning
    lives in {!Dr_planner}.  Its candidates are the MILP's incumbent (or
    the rounded relaxation, or the greedy plan, when there is none), the
    rounded relaxation while the gap exceeds 5%, and the greedy plan when
    no side constraint is set; each is repaired by {!polish}, and the
    cheapest under {!Evaluate} is served with the solver's diagnostics.
    Only the last-resort greedy plan ignores the side constraints. *)

type outcome = {
  placement : Placement.t;
  summary : Evaluate.summary;
  milp_status : Lp.Status.t;
  milp_gap : float;          (** relative gap proven by the MILP *)
  nodes : int;
  lp_iterations : int;
  local_moves : int;         (** local-search improvements applied *)
}

(** [make_outcome asis placement ...] serves [placement], priced by
    {!Evaluate.plan}; a NaN [gap] reads 1. *)
val make_outcome :
  Asis.t -> Placement.t -> status:Lp.Status.t -> gap:float -> nodes:int ->
  lp_iterations:int -> local_moves:int -> outcome

(** [polish builder asis ~swaps p] is the one polish of plans made under
    [builder]: {!Local_search.improve} under {!Lp_builder.may_place} and
    [builder]'s omega.  The rule is computed when [asis] is applied. *)
val polish :
  Lp_builder.options -> Asis.t ->
  ?max_rounds:int -> swaps:bool -> Placement.t -> Placement.t * int

(** MILP budgets tuned for consolidation instances. *)
val default_milp_options : Lp.Milp.options

val consolidate :
  ?builder:Lp_builder.options ->
  ?milp:Lp.Milp.options ->
  ?local_search:bool ->
  Asis.t -> outcome
