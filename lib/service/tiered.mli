(** Tiered plan-cache front: the in-process LRU ({!Cache}) backed by an
    ordered list of named fallback tiers — in production the cluster
    layer's on-disk store and consistent-hash peer lookup.

    Lookup walks memory → tier 1 → tier 2 …; the first hit is promoted
    into every cheaper tier (a peer-fetched plan lands in the LRU {e and}
    the local disk store), so repeated traffic converges onto the fastest
    tier that survives.  Every (tier, hit/miss) lookup outcome is counted,
    feeding the [etransform_cache_lookups_total{tier,result}] metric.

    Entries are immutable and content-addressed by job fingerprint, so
    cross-tier consistency is trivial: any copy under a fingerprint equals
    every other copy, last-write-wins is safe, and nothing needs
    invalidation.  The one poisoning hazard — deadline-capped solves whose
    fingerprint excludes the deadline — is refused at insert time
    ([~capped:true]), both here and again inside the disk store. *)

type tier = {
  name : string;  (** metric label: ["disk"], ["peer"], … *)
  remote : bool;
      (** remote tiers are skipped by {!find_local} so a peer serving
          [GET /cache/<fp>] never fans the lookup back out to its own
          peers (no forwarding loops) *)
  find : string -> Etransform.Solver.outcome option;
  store : capped:bool -> string -> Etransform.Solver.outcome -> unit;
  bytes : (unit -> float) option;
      (** occupancy gauge, when the tier is backed by real storage *)
}

type t

(** [create ~cache_capacity ()] — the LRU front plus [tiers] in lookup
    order (cheapest first). *)
val create : ?tiers:tier list -> cache_capacity:int -> unit -> t

(** The in-memory LRU tier, for existing metrics and tests. *)
val lru : t -> Etransform.Solver.outcome Cache.t

(** ["memory"] followed by the backing tiers' names, lookup order. *)
val tier_names : t -> string list

(** [find t fp] walks every tier; [Some (outcome, tier_name)] on the
    first hit (after promoting it into the cheaper tiers). *)
val find : t -> string -> (Etransform.Solver.outcome * string) option

(** [find_local t fp] is {!find} restricted to local tiers (memory and
    disk) — what a node answers to a peer's [GET /cache/<fp>]. *)
val find_local : t -> string -> Etransform.Solver.outcome option

(** [probe t fp] is {!find} stopped at the first remote tier, and it
    counts only a hit: on a miss no counter moves, because the caller
    repeats the lookup with {!find} (a pool answers local hits at
    submission and hands misses to a worker).  Each lookup is so
    counted once per tier it consulted. *)
val probe : t -> string -> (Etransform.Solver.outcome * string) option

(** [add t ~capped fp outcome] inserts into the LRU and offers the entry
    to every tier.  [capped:true] (a deadline-capped solve) is refused
    everywhere — see the poisoning note above. *)
val add : t -> capped:bool -> string -> Etransform.Solver.outcome -> unit

(** Fingerprints currently held in the memory tier (the disk store owns
    its own key list) — the cluster layer's gossip digest input. *)
val keys : t -> string list

(** Lookup counters since creation: [((tier, result), n)] sorted, where
    result is ["hit"] or ["miss"]. *)
val counts : t -> ((string * string) * int) list

(** The occupancy gauge of the first tier that has one (the disk store),
    if any. *)
val disk_bytes : t -> (unit -> float) option
