(** The paper's joint consolidation + disaster-recovery MILP (§IV-B).

    On top of the §III model it adds, per application group, a secondary
    site choice Y_ij with X_ij + Y_ij <= 1, the linearization
    J_abc >= X_ca + Y_cb - 1 (J may stay continuous: the objective presses
    it down, the constraint up), backup-pool sizes
    G_b >= sum_c J_abc S_c for every primary a, shared capacity
    sum_i S_i X_ij + G_j <= O_j, the business-impact constraint
    sum_i X_ij <= omega M, and backup costs zeta G_b plus the backup pools'
    space/power/labor.

    The J variables make the model O(M N^2); use this faithful form on
    small/medium instances (it anchors the tests) and {!Dr_planner} at
    scale. *)

type options = {
  omega : float option;
  dedicated_backups : bool;
      (** plan for concurrent failures: G_b is the sum, not the max *)
}

val default_options : options

type built = {
  model : Lp.Model.t;
  x : Lp.Model.var option array array;
  y : Lp.Model.var option array array;
  g : Lp.Model.var array;
  asis : Asis.t;
}

val build : ?options:options -> Asis.t -> built

val decode : built -> float array -> Placement.t

(** [decode_secondaries y solution primary ~n]: each group's argmax of its
    [y] row off its primary, else the site after the primary among [n]. *)
val decode_secondaries :
  Lp.Model.var option array array -> float array -> int array -> n:int ->
  int array
