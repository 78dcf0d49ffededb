(** The one clock every budget, deadline and timer reads. *)

(** [now ()] is monotonic wall-clock time in seconds from an arbitrary
    origin: only differences between readings, and deadlines built from
    them, mean anything. *)
val now : unit -> float
