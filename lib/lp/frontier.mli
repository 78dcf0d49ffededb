(** The open-node frontier of the branch-and-bound search.

    A min-max interval heap keyed by [float]: {!pop_min} removes the
    node with the lowest key, the best bound for a minimizing search.
    The order in which equal keys come out is part of the contract in
    practice: it decides which node the search visits next, and so the
    plans a solve returns.  Not thread-safe. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> key:float -> 'a -> unit

(** Remove the entry with the smallest key (ties broken by heap
    position). *)
val pop_min : 'a t -> (float * 'a) option

(** Smallest key present without removing it. *)
val min_key : 'a t -> float option
