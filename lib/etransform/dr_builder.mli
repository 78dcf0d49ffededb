(** The paper's joint consolidation + disaster-recovery MILP (§IV-B).

    It is the §III model of {!Lp_builder.build}, with every option that
    builder takes (pins, forbids, latency budget, omega spread,
    shared-risk rows, volume discounts, fixed charges), plus the DR half:
    per application group a secondary site choice Y_ij on the group's
    allowed sites, with X_ij + Y_ij <= 1; the linearization
    J_abc >= X_ca + Y_cb - 1 (J may stay continuous: the objective presses
    it down, the constraint up); shared backup pools sized for one failing
    site, G_b >= sum_c J_abc S_c for every primary site a; capacity shared
    by primaries and pool, sum_i S_i X_ij + G_j <= O_j; and the backup
    costs zeta G_b plus the pools' space/power/labor, appended to stage 1's
    objective.

    The J variables make the model O(M N^2); use this faithful form on
    small/medium instances (it anchors the tests) and {!Dr_planner} at
    scale. *)

type built = {
  base : Lp_builder.built;  (** the §III model the DR half extends *)
  y : Lp.Model.var option array array;
      (** [y.(i).(j)]: secondary variable, [None] off group [i]'s sites *)
  g : Lp.Model.var array;   (** pool size per target *)
}

val build : ?options:Lp_builder.options -> Asis.t -> built

val decode : built -> float array -> Placement.t

(** [decode_secondaries y solution primary ~n]: each group's argmax of its
    [y] row off its primary, else the site after the primary among [n]. *)
val decode_secondaries :
  Lp.Model.var option array array -> float array -> int array -> n:int ->
  int array
