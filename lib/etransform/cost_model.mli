(** Per-(group, data center) cost components of the paper's objective:

    X_ij * ( S_i (Q_j + alpha E_j + T_j / beta) + D_i W_j + L_ij )

    Space (Q_j) is kept separate because with economies of scale it is a
    concave function of the DC's total server count, handled at the DC
    level; everything else here is linear in the assignment. *)

(** [avg_latency_ms asis ~group dc] is the user-weighted average RTT the
    group's users see from [dc]. *)
val avg_latency_ms : Asis.t -> group:int -> Data_center.t -> float

(** [wan_cost asis ~group dc] per month.  With [use_vpn] set, the dedicated
    link model applies: the group needs
    [ceil-free (C_ir D_i) / (gamma * sum_r C_ir)] links to location [r]
    at [F_jr] each; otherwise the shared model [D_i * W_j] applies. *)
val wan_cost : Asis.t -> group:int -> Data_center.t -> float

(** [power_labor_per_server asis dc] is the monthly non-space cost of one
    server at [dc]: alpha * hours * E_j + T_j / beta. *)
val power_labor_per_server : Asis.t -> Data_center.t -> float

(** [backup_price asis dc] is the monthly linear price of one backup
    server in [dc]'s pool, as the DR models and the stage-2 fallback charge
    it: the purchase zeta, plus power and labor, plus space at the first
    volume tier's unit price. *)
val backup_price : Asis.t -> Data_center.t -> float

(** [latency_penalty asis ~group dc] is L_ij: the monthly dollar penalty for
    the group's users if placed at [dc]. *)
val latency_penalty : Asis.t -> group:int -> Data_center.t -> float

(** The WAN cost and latency penalty of every (group, target) pair:
    [wan.(i).(j)] and [penalty.(i).(j)] are
    [wan_cost asis ~group:i asis.targets.(j)] and
    [latency_penalty asis ~group:i asis.targets.(j)], bit for bit.  The
    arrays are shared: read them, never write them. *)
type pairs = private {
  estate : Asis.t;
  wan : float array array;
  penalty : float array array;
}

(** [pairs asis] is the pair table of [asis].  Each domain keeps the
    table of the last estate it was asked for, keyed on the estate's
    physical identity, so the consumers of one plan compute it once.  It
    relies on estates never being changed in place: derive a variant as
    a new record ([{ asis with ... }]), which gets a table of its own. *)
val pairs : Asis.t -> pairs

(** [assign_cost ?include_first_tier_space asis ~group j] is the linear
    placement coefficient c_ij of target [j], read from {!pairs}.  When
    [include_first_tier_space] (default true) the space term uses the first
    volume tier's unit price — exact under flat pricing, an upper bound
    under volume discounts. *)
val assign_cost :
  ?include_first_tier_space:bool -> Asis.t -> group:int -> int -> float
