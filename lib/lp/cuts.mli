(** Root-node cutting planes: Gomory mixed-integer and knapsack-cover
    cuts.

    Cuts are valid inequalities for the integer hull that the current LP
    relaxation optimum violates; appending them tightens the root bound
    and often de-fractionalizes many variables at once before the tree
    opens.  Both separators work purely from the {!Simplex} frame layout
    (structurals first, then one slack per inequality row in row order),
    the exported optimal basis and {!Simplex.basis_rows} — no solver
    internals are touched.

    - {e Gomory mixed-integer cuts} read one simplex tableau row per
      fractional basic integer variable: the row of [B⁻¹[A|S]] is
      recovered by one BTRAN on a factorization of the optimal basis
      ({!Simplex.basis_rows}), nonbasic columns are shifted onto their
      active bounds, and the standard GMI formula is applied
      (fractional-part coefficients for integer nonbasics, sign-split
      scaling for continuous ones).  Slack
      variables are substituted back out so the cut is expressed over
      structural variables only.  Rows whose basic column is an
      artificial, or that involve a nonbasic free column, are skipped.
    - {e Knapsack-cover cuts} scan [<=] rows: binary terms with negative
      coefficients are complemented, non-binary terms are relaxed to
      their interval minimum, and a greedy cover (largest LP value
      first, then minimized) yields [sum x_j <= |C| - 1] whenever the
      relaxation packs more than capacity into the cover. *)

type stats = { gomory : int; cover : int; rounds : int }

val total : stats -> int

(** The repeated-cut filter of {!strengthen}: cuts already seen, across
    rounds. *)
type seen

val seen : unit -> seen

(** [keep_fresh seen cuts] keeps, in order, the cuts of [cuts] that
    repeat no cut in [seen] nor an earlier one of [cuts], and adds them
    to [seen].  A cut repeats another when both have the same [sense],
    the same [ids] in the same order, and their [rhs] and each of their
    [coefs] print the same under [Printf.sprintf "%.9g"] (so [0.0] and
    [-0.0] differ). *)
val keep_fresh : seen -> Model.row list -> Model.row list

(** [extend_basis input b k] extends the basis [b] of [input] to [input]
    with [k] inequality rows appended, each new row's slack basic in its
    row ({!Simplex.layout} places the new slacks after the old ones).
    [None] when [b] does not fit [input] or has an artificial basic. *)
val extend_basis :
  Simplex.input -> Simplex.basis -> int -> Simplex.basis option

(** [strengthen ~solve ~integer ~int_tol ~stop input] runs separation
    rounds at the root: solve (with a basis), separate, append, repeat.
    [solve] must export a basis ([want_basis]) for Gomory separation to
    fire; [integer.(j)] marks integer structurals.  When [root] carries
    an optimal result with a basis for [input], the initial solve is
    skipped and each subsequent round is warm-started by extending the
    previous basis with the new cut slacks basic (the classic
    cuts-then-dual-simplex repair), so a round costs a handful of dual
    pivots instead of a cold solve.  Returns the augmented input, its
    relaxation optimum and cut statistics — or [None] when the first
    solve fails or no cut was ever added (callers keep their original
    root solve in that case).  At most 3 rounds run, each adding at most
    16 cuts of each family; separation is skipped for models with more
    than 768 rows. *)
val strengthen :
  solve:(?warm:Simplex.basis -> Simplex.input -> Simplex.result) ->
  integer:bool array ->
  int_tol:float ->
  ?root:Simplex.result ->
  stop:(unit -> bool) ->
  Simplex.input ->
  (Simplex.input * Simplex.result * stats) option
