(** The basis factorization of the revised simplex.

    A factorization represents the inverse of an [m × m] basis [B] whose
    column [p] is the matrix column basic in row [p].  It is a
    product-form eta file, but callers see only the operations below, so
    another representation (an LU with its own updates) can replace it.

    A {!snapshot} carries no update: only {!build} and {!diagonal} make
    one, and it never changes after.  The simplex's per-domain memo
    stores snapshots, so a memo hit replays exactly the factorization a
    miss computes.  A {!t} is a snapshot followed by the rank-one updates
    of the pivots since; it is mutable and belongs to one solve. *)

type snapshot
type t

(** [build ~cstart ~crow ~cval cols] factors the basis of the columns
    [cols] of the compressed-column matrix [cstart]/[crow]/[cval] (row
    indices below [Array.length cols]).  Returns the factorization and
    the permuted basis [b], a permutation of [cols] with column [b.(p)]
    basic in row [p]; [None] when the basis is singular. *)
val build :
  cstart:int array ->
  crow:int array ->
  cval:float array ->
  int array ->
  (snapshot * int array) option

(** [diagonal dg] factors the diagonal basis whose row [i] holds
    [dg.(i)]: a crash basis of slacks and artificials, each [±1]. *)
val diagonal : float array -> snapshot

(** [start s] is [s] with no update on it. *)
val start : snapshot -> t

(** [ftran f x] overwrites [x] with [B⁻¹ x]. *)
val ftran : t -> float array -> unit

(** [btran f y] overwrites [y] with [B⁻ᵀ y]. *)
val btran : t -> float array -> unit

(** [update f ~p d] replaces column [p] of [B] by the column [a] whose
    transform [d = B⁻¹ a] ({!ftran} on [f]) is given; [d.(p) <> 0]. *)
val update : t -> p:int -> float array -> unit

(** [due f]: refactorize before the next pivot.  True once [f] holds
    [max 64 (min 128 m)] etas, its snapshot's and its updates'. *)
val due : t -> bool

(** [sort_by_key key a] sorts [a] by increasing [key.(a.(i))] into the
    permutation [Array.sort (fun x y -> Int.compare key.(x) key.(y)) a]
    produces, ties included: {!build} orders the basis columns by it. *)
val sort_by_key : int array -> int array -> unit
