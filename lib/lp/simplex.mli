(** Two-phase primal simplex with dual-simplex warm starts, for linear
    programs with bounded variables.

    A revised simplex over the frame {!layout} in compressed columns.
    This module keeps the bounds, pricing, the ratio tests and the
    phases; {!Factor} alone owns the basis factorization (built from the
    basis, updated once per pivot, rebuilt when {!Factor.due} says so).
    Variables rest at either bound (binary upper bounds cost no rows),
    slacks are added internally, a slack-plus-structural crash basis
    usually skips phase 1, pricing is Dantzig over nonzeros with a Bland
    anti-cycling fallback, and the dual certificate can be verified
    independently ({!check_certificate}).

    A solve can export its optimal {!basis}, and a later solve over the
    {e same rows} but other bounds restarts from it: a bounded-variable
    dual simplex repairs the bound violations, a handful of pivots after
    one branch-and-bound bound change.  A warm solve falls back to the
    cold path when the basis is singular or the reoptimization struggles
    numerically.

    Each domain remembers the matrix of the last [(rows, nvars)] it
    solved, keyed on the physical identity of [rows], and the
    {!Factor.snapshot} of the last warm basis factored over it.  A
    snapshot carries no update by construction, so results are
    bit-identical with or without the memo.  A [rows] array must not be
    mutated after it has been solved. *)

type input = {
  nvars : int;
  lo : float array;     (** length [nvars]; [neg_infinity] allowed *)
  hi : float array;     (** length [nvars]; [infinity] allowed *)
  obj : float array;    (** length [nvars] *)
  obj_const : float;
  minimize : bool;
  rows : Model.row array;
      (** sparse rows: ids, coefficients, sense and rhs ({!Model.row}) *)
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

(** The frame's column layout over an input's rows: structurals
    [0 .. nvars-1], then one slack per inequality row in row order
    ([slack.(i)], coefficient [+1] on [Le] and [-1] on [Ge] rows; [-1]
    on an equality row), then one artificial per row ([art0 + i], a
    [+1] in row [i]).  Basis column indices ({!basis}) refer to it. *)
type layout = { slack : int array; art0 : int }

val layout : input -> layout

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
    a function from a basic column [c] to its row of [B⁻¹], taken by a
    BTRAN refined once against its residual: the vector [w] with [w · A_c = 1] and [w · A_c' = 0] for every
    other basic column [c'] (columns over the frame {!layout}).
    [None] when [b] does not fit [input]'s rows or is singular.  The
    function raises [Invalid_argument] on a nonbasic column. *)
val basis_rows : input -> basis -> (int -> float array) option

(** [check_certificate input result] re-verifies, from scratch, that
    [result] is a valid optimum of [input]: primal feasibility, the sign
    conditions on reduced costs, and the strong-duality identity.  Returns
    error strings; empty means the certificate holds.  Only meaningful when
    [result.status = Optimal]. *)
val check_certificate : ?tol:float -> input -> result -> string list

(** [feasible ?tol input x] checks bounds and rows at the point [x]. *)
val feasible : ?tol:float -> input -> float array -> bool
