(** "To-be" plans: where each application group lands, and — for DR plans —
    each group's secondary site and the backup-server pools. *)

type t = {
  primary : int array;            (** group -> target DC index *)
  secondary : int array option;   (** group -> secondary DC (DR plans) *)
}

val non_dr : int array -> t
val with_dr : primary:int array -> secondary:int array -> unit -> t

(** [servers_per_dc asis t] counts primary servers landing on each target. *)
val servers_per_dc : Asis.t -> t -> int array

(** [backup_servers asis t] is G_b per target: backup servers are shared
    because only one site fails at a time, so G_b is the max over primary
    sites [a] of the servers whose primary is [a] and secondary is [b]. *)
val backup_servers : Asis.t -> t -> float array

(** [dcs_used asis t] counts targets hosting at least one primary or backup
    server. *)
val dcs_used : Asis.t -> t -> int

(** Feasibility: indices in range, primaries and secondaries on their
    groups' allowed DCs, shared-risk constraints, secondary distinct from
    primary, and capacity covering primaries plus backups.  Empty list =
    feasible. *)
val validate : Asis.t -> t -> string list

val pp : Asis.t -> t Fmt.t
