(** Two-phase primal simplex with dual-simplex warm starts, for linear
    programs with bounded variables.

    A revised simplex: the matrix lives in compressed column form, the
    basis inverse is a product of eta factors with periodic
    refactorization, and pricing touches nonzeros only.  It supports
    variables resting at either bound (so binary upper bounds cost no
    extra rows), equality / inequality rows (slacks are added
    internally), a slack-plus-structural crash basis that usually skips
    phase 1 outright, Dantzig pricing with a Bland anti-cycling fallback,
    and produces a dual certificate that {!check_certificate} can verify
    independently.

    A solve can export its optimal {!basis} and a later solve over the
    {e same rows} but different bounds can restart from it: the basis is
    refactorized and a bounded-variable dual simplex repairs the bound
    violations, which after a single branch-and-bound bound change is
    typically a handful of pivots instead of a full cold solve.  Warm
    solves fall back to the cold path automatically when the saved basis is
    singular or the reoptimization struggles numerically.

    Each domain remembers the compressed-column matrix of the last
    [(rows, nvars)] it solved, keyed on the physical identity of [rows],
    and the fresh factorization of the last warm basis it factored over
    that matrix.  A warm solve that finds both skips the matrix build and
    the refactorization.  Only a factorization with no pivot etas on it is
    kept, so results are bit-identical with or without the memo.  A [rows]
    array must not be mutated after it has been solved. *)

type input = {
  nvars : int;
  lo : float array;     (** length [nvars]; [neg_infinity] allowed *)
  hi : float array;     (** length [nvars]; [infinity] allowed *)
  obj : float array;    (** length [nvars] *)
  obj_const : float;
  minimize : bool;
  rows : ((int * float) array * Model.sense * float) array;
      (** sparse rows: (terms, sense, rhs) *)
}

(** Column status: a nonbasic column rests at one of its bounds (or at 0
    when free); a basic column's value lives in its row. *)
type cstat = Basic | At_lower | At_upper | Free_nb

(** A restart point.  [vbasis.(i)] is the column basic in row [i];
    [vstat.(j)] is the resting status of every column (structural, slack
    and artificial).  Only valid for inputs with the same row structure as
    the solve that produced it — bounds and objective may differ. *)
type basis = { vbasis : int array; vstat : cstat array }

type result = {
  status : Status.t;
  x : float array;           (** structural variable values, length [nvars] *)
  obj_value : float;         (** in the user's optimization direction *)
  duals : float array;       (** one multiplier per row, min convention *)
  reduced_costs : float array;  (** per structural variable, min convention *)
  iterations : int;
  basis : basis option;
      (** final basis, present when requested and [status = Optimal] *)
  warm_started : bool;
      (** whether this result came from the dual-simplex warm path (false
          when a warm attempt fell back to the cold solver) *)
}

(** [of_model m] compiles a {!Model.t}, ignoring integrality marks. *)
val of_model : Model.t -> input

(** [solve input] runs the two-phase primal simplex.  With [~warm] the
    solver instead refactorizes the given basis and reoptimizes with the
    dual simplex (falling back to a cold solve on numerical failure); warm
    solves always export their basis.  With [~want_basis:true] a cold
    solve exports its final basis so children can warm start.

    [deadline] is an absolute {!Clock.now} time (default [infinity]:
    none).  When it is finite, every pivot of either simplex first checks
    it, and a solve that finds it passed stops with {!Status.Time_limit},
    warm solves included: they do not fall back to a cold solve.  The
    overshoot is one pivot plus the set-up before the first (matrix
    build, crash basis, refactorization). *)
val solve :
  ?max_iters:int ->
  ?deadline:float ->
  ?warm:basis ->
  ?want_basis:bool ->
  input ->
  result

(** [basis_rows input b] factorizes the basis [b] of [input] and returns
    a function from a basic column [c] to its row of [B⁻¹], taken by one
    BTRAN: the vector [w] with [w · A_c = 1] and [w · A_c' = 0] for every
    other basic column [c'] (columns over the frame layout: structurals,
    then one slack per inequality row with coefficient [+1] on [Le] and
    [-1] on [Ge] rows, then one artificial per row).
    [None] when [b] does not fit [input]'s rows or is singular.  The
    function raises [Invalid_argument] on a nonbasic column. *)
val basis_rows : input -> basis -> (int -> float array) option

(** [sort_by_key key a] sorts [a] by increasing [key.(a.(i))] into the
    permutation [Array.sort (fun x y -> Int.compare key.(x) key.(y)) a]
    produces, ties included: the refactorization orders basis columns
    with it. *)
val sort_by_key : int array -> int array -> unit

(** [check_certificate input result] re-verifies, from scratch, that
    [result] is a valid optimum of [input]: primal feasibility, the sign
    conditions on reduced costs, and the strong-duality identity.  Returns
    error strings; empty means the certificate holds.  Only meaningful when
    [result.status = Optimal]. *)
val check_certificate : ?tol:float -> input -> result -> string list

(** [feasible ?tol input x] checks bounds and rows at the point [x]. *)
val feasible : ?tol:float -> input -> float array -> bool
