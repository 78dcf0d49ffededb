(** Incremental re-planning against a previous plan.

    Enterprise estates drift — groups grow, shrink, retire, appear — and
    a nightly re-plan should not pay the full MILP again when 90% of the
    estate is untouched.  [replan] pins every structurally-unchanged
    group to its previous primary (via {!Etransform.Lp_builder.options}
    pins), so the solver only re-decides the delta. *)

type change =
  | Resize of string * int        (** [Resize (name, servers)] *)
  | Scale_data of string * float  (** multiply [data_mb_month] *)
  | Retire of string              (** remove the group *)
  | Add of Etransform.App_group.t * int
      (** new group and its current-DC index *)

(** Apply changes in order, addressing groups by name.  Shared-risk
    ([colocate_avoid]) indices of surviving groups are remapped across
    retirements; references to retired groups are dropped. *)
val apply : Etransform.Asis.t -> change list -> Etransform.Asis.t

(** Content fingerprint of a plan (hex MD5 of the canonical placement
    serialization) — the handle clients pass back to name "the previous
    plan" without shipping it. *)
val fingerprint : Etransform.Placement.t -> string

(** [pins ~previous:(prev_asis, prev_plan) asis] is the (group, target)
    pin list for groups of [asis] that existed under the same name in
    [prev_asis] with identical structure.  Groups with shared-risk
    constraints are never pinned — their admissible set depends on other
    groups' placements. *)
val pins :
  previous:Etransform.Asis.t * Etransform.Placement.t ->
  Etransform.Asis.t -> (int * int) list

type replanned = {
  outcome : Etransform.Solver.outcome;
  pinned : int;                 (** groups pinned to their previous primary *)
  previous_fingerprint : string;
}

(** Incremental re-plan.  Extra [builder] pins are kept. *)
val replan :
  ?builder:Etransform.Lp_builder.options ->
  ?milp:Lp.Milp.options ->
  ?local_search:bool ->
  previous:Etransform.Asis.t * Etransform.Placement.t ->
  Etransform.Asis.t -> replanned
