(** Distance-to-latency conversion and latency matrices.

    Light in fibre covers roughly 200 km per millisecond one way; round-trip
    latency is therefore about [distance_km / 100] ms plus a fixed
    processing/queueing base. *)

(** [rtt_ms ?base_ms distance_km] estimates the round-trip time for a
    one-way fibre distance in km. *)
val rtt_ms : ?base_ms:float -> float -> float

(** [matrix ~dcs ~users] is the [n_dcs x n_users] RTT matrix. *)
val matrix :
  ?base_ms:float -> dcs:Location.t array -> users:Location.t array -> unit ->
  float array array

(** [average ~weights row] is the user-weighted average latency of one DC
    row; raises [Invalid_argument] on length mismatch, returns 0 when all
    weights are zero. *)
val average : weights:float array -> float array -> float

(** [mean ~total ~weights row] is [average ~weights row] for a caller that
    already holds [total], the sum of [weights] in index order. *)
val mean : total:float -> weights:float array -> float array -> float
