(** Mutable builder for linear and mixed-integer programs.

    A model owns a growing set of decision variables, linear constraints and
    one linear objective.  Models are consumed by {!Milp.solve} (or compiled
    to solver input by {!Milp.relax}) and can be serialized to the CPLEX LP
    file format with {!Lp_format.model_to_string}. *)

(** A variable is its column index: [id] is dense, assigned in creation
    order.  It is an immediate value, so creating one allocates nothing;
    its bounds, integrality and name live in the model's flat arrays
    ({!lower}, {!upper}, {!is_integer}, {!var_name}). *)
type var = private { id : int } [@@unboxed]

type sense = Le | Ge | Eq

(** A linear expression: constant plus weighted variables. *)
module Linexpr : sig
  type t

  val zero : t
  val constant : float -> t
  val term : float -> var -> t
  val var : var -> t

  (** [dot w vs] is the sum of [w.(k) * v] over the [k] where
      [vs.(k) = Some v]: a weighted row or column of a builder's variable
      matrix in one node.  The arrays are shared, not copied, and must not
      change until the expression has been added; they must have the same
      length. *)
  val dot : float array -> var option array -> t

  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : float -> t -> t
  val sum : t list -> t

  (** [terms e] returns the canonical terms as two arrays of one length,
      ids and coefficients: ids ascending, repeated ids summed, zero sums
      dropped.  Terms are summed in the order [e] visits them (left
      operand first) after a sort by id; when that order is neither
      ascending nor strictly descending, the sort permutes the terms as
      [Array.sort] by id permutes (id, coefficient) pairs, whose tie order
      fixes the order of each sum. *)
  val terms : t -> int array * float array
end

(** A sparse row: [coefs.(k)] is the coefficient of column [ids.(k)].
    The one row type of the library: {!add_constr} stores its rows so,
    {!Simplex.input} solves them and {!Cuts} appends them.  A row the
    model stores is canonical ([ids] as {!Linexpr.terms} makes them, any
    constant part of the added expression moved into [rhs]) and never
    changes. *)
type row = { ids : int array; coefs : float array; sense : sense; rhs : float }

type t

val create : ?name:string -> unit -> t

val name : t -> string

(** [add_var t name] creates a continuous variable in [\[lo, hi\]]
    (default [\[0, infinity)]).  [~integer:true] marks it integral;
    [~binary:true] is shorthand for integer in [\[0,1\]]. *)
val add_var :
  t -> ?lo:float -> ?hi:float -> ?integer:bool -> ?binary:bool -> string -> var

(** [add_constr t name expr sense rhs] adds the row [expr sense rhs] in
    canonical form (see {!row}).  It is the only way to add a row. *)
val add_constr : t -> string -> Linexpr.t -> sense -> float -> unit

(** Convenience wrappers around {!add_constr}. *)
val add_le : t -> string -> Linexpr.t -> float -> unit

val add_ge : t -> string -> Linexpr.t -> float -> unit
val add_eq : t -> string -> Linexpr.t -> float -> unit

(** [set_objective t ~minimize e] installs the objective, canonicalized
    once as rows are.  Default sense is minimization; the constant part of
    [e] is carried into reported objective values. *)
val set_objective : t -> ?minimize:bool -> Linexpr.t -> unit

val minimize : t -> bool

(** [objective_terms t] is the canonical objective set by
    {!set_objective}: its ids, coefficients and constant part
    ([[||], [||], 0.0] until one is set). *)
val objective_terms : t -> int array * float array * float

(** The accessors below and the two setters raise [Invalid_argument] on a
    variable whose id is not a column of [t]. *)

val set_bounds : t -> var -> lo:float -> hi:float -> unit
val set_integer : t -> var -> bool -> unit
val var_name : t -> var -> string
val lower : t -> var -> float
val upper : t -> var -> float
val is_integer : t -> var -> bool

(** Fresh copies of every variable's lower and upper bound, by id. *)
val lower_bounds : t -> float array

val upper_bounds : t -> float array

val num_vars : t -> int
val num_constrs : t -> int
val vars : t -> var array

(** The rows in the order they were added. *)
val constrs : t -> row array

(** [constr_name t i] is the name row [i] was added with. *)
val constr_name : t -> int -> string

(** Integer variables in id order. *)
val integer_vars : t -> var list

(** [validate t] checks structural sanity (bound order, finite rhs,
    at least one variable, a non-empty integral domain for every integer
    variable) and returns a list of human-readable problems; empty means
    well-formed. *)
val validate : t -> string list

val pp_stats : t Fmt.t
