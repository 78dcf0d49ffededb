(** Mutable builder for linear and mixed-integer programs.

    A model owns a growing set of decision variables, linear constraints and
    one linear objective.  Models are consumed by {!Milp.solve} (or compiled
    to solver input by {!Milp.relax}) and can be serialized to the CPLEX LP
    file format with {!Lp_format.model_to_string}. *)

type var = private {
  id : int;           (** dense index, assigned in creation order *)
  name : string;
  mutable lo : float; (** lower bound, may be [neg_infinity] *)
  mutable hi : float; (** upper bound, may be [infinity] *)
  mutable integer : bool;
}

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

  (** [terms e] returns the canonical term array: ids ascending, repeated
      ids summed, zero sums dropped.  Terms are summed in the order [e]
      visits them (left operand first) after a sort by id; when that order
      is neither ascending nor strictly descending, the sort is
      [Array.sort]'s on (id, coefficient) pairs, whose tie order fixes the
      order of each sum. *)
  val terms : t -> (int * float) array
end

(** A row in canonical form: [terms] as {!Linexpr.terms} makes them, and
    any constant part of the added expression moved into [rhs].  Rows are
    canonicalized once, when they are added, and never change. *)
type constr = private {
  cname : string;
  terms : (int * float) array;
  sense : sense;
  rhs : float;
}

type t

val create : ?name:string -> unit -> t

val name : t -> string

(** [add_var t name] creates a continuous variable in [\[lo, hi\]]
    (default [\[0, infinity)]).  [~integer:true] marks it integral;
    [~binary:true] is shorthand for integer in [\[0,1\]]. *)
val add_var :
  t -> ?lo:float -> ?hi:float -> ?integer:bool -> ?binary:bool -> string -> var

(** [add_constr t name expr sense rhs] adds the row [expr sense rhs] in
    canonical form (see {!constr}).  It is the only way to add a row. *)
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
    {!set_objective}: its term array and constant part ([[||], 0.0] until
    one is set). *)
val objective_terms : t -> (int * float) array * float

val set_bounds : t -> var -> lo:float -> hi:float -> unit
val set_integer : t -> var -> bool -> unit

val num_vars : t -> int
val num_constrs : t -> int
val vars : t -> var array
val constrs : t -> constr array

(** Integer variables in id order. *)
val integer_vars : t -> var list

(** [validate t] checks structural sanity (bound order, finite rhs,
    at least one variable, a non-empty integral domain for every integer
    variable) and returns a list of human-readable problems; empty means
    well-formed. *)
val validate : t -> string list

val pp_stats : t Fmt.t
