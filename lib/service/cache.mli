(** Content-addressed LRU plan cache.

    Keys are job fingerprints ({!Job.fingerprint}); values are whatever the
    pool stores — in practice {!Etransform.Solver.outcome}s of successful,
    non-degraded solves.  The cache is bounded: inserting beyond [capacity]
    evicts the least-recently-used entry.  All operations are thread-safe
    (the pool's workers and submitters share one cache). *)

type 'a t

(** [create ~capacity ()] — [capacity <= 0] disables caching (every lookup
    misses, every insert is dropped). *)
val create : capacity:int -> unit -> 'a t

val capacity : 'a t -> int
val length : 'a t -> int

(** [find t key] returns the cached value and marks it most recently
    used. *)
val find : 'a t -> string -> 'a option

(** [add t key v] inserts or refreshes [key], evicting the LRU entry when
    over capacity. *)
val add : 'a t -> string -> 'a -> unit

(** Every cached key, in no particular order — the cluster layer folds
    these into the gossip digest of locally-held plans. *)
val keys : 'a t -> string list

(** LRU evictions since [create].  Hits and misses are counted one level
    up, by {!Tiered}, per tier. *)
val evictions : 'a t -> int
