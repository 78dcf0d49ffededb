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

  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : float -> t -> t
  val sum : t list -> t

  (** [terms e] returns the canonical (deduplicated, id-sorted) term list. *)
  val terms : t -> (int * float) array

  val const_part : t -> float

  (** [eval e x] evaluates [e] against the assignment [x] indexed by var id. *)
  val eval : t -> float array -> float

  val pp : names:(int -> string) -> t Fmt.t
end

type constr = private {
  cname : string;
  expr : Linexpr.t;
  sense : sense;
  rhs : float;
  mutable tcache : (int * float) array option;
      (** memoized canonical terms of [expr]; use {!row_terms} *)
}

type t

val create : ?name:string -> unit -> t

val name : t -> string

(** [add_var t name] creates a continuous variable in [\[lo, hi\]]
    (default [\[0, infinity)]).  [~integer:true] marks it integral;
    [~binary:true] is shorthand for integer in [\[0,1\]]. *)
val add_var :
  t -> ?lo:float -> ?hi:float -> ?integer:bool -> ?binary:bool -> string -> var

(** [add_constr t name expr sense rhs] adds the row [expr sense rhs].
    Any constant part of [expr] is moved to the right-hand side. *)
val add_constr : t -> string -> Linexpr.t -> sense -> float -> unit

(** Convenience wrappers around {!add_constr}. *)
val add_le : t -> string -> Linexpr.t -> float -> unit

val add_ge : t -> string -> Linexpr.t -> float -> unit
val add_eq : t -> string -> Linexpr.t -> float -> unit

(** [set_objective t ~minimize e] installs the objective.  Default sense is
    minimization; the constant part of [e] is carried into reported
    objective values. *)
val set_objective : t -> ?minimize:bool -> Linexpr.t -> unit

val minimize : t -> bool

(** [row_terms c] is [Linexpr.terms c.expr], memoized — rows are immutable
    once added, so repeated compilation of the same model skips the
    canonicalization pass. *)
val row_terms : constr -> (int * float) array

(** [objective_terms t] is the memoized canonical objective: its term array
    and constant part.  Invalidated by {!set_objective}. *)
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
