(** The paper's greedy baseline (§VI-B): visit application groups in
    decreasing server-count order and put each in the data center that is
    cheapest *right now*, accounting for marginal space (on the discount
    curve), power, labor, WAN and latency penalty.

    The DR variant (§VI-C) then assigns each group's backup to the cheapest
    distinct site among its allowed ones, charging for any new backup
    servers the choice forces. *)

(** [order_by_size asis] lists the groups largest first, the order both
    greedy planners and the engine's LP rounding place them in. *)
val order_by_size : Asis.t -> int array

val plan : Asis.t -> Placement.t

val plan_dr : Asis.t -> Placement.t
