(** Termination status of an LP or MILP solve. *)

type t =
  | Optimal          (** proven optimal within tolerances *)
  | Infeasible       (** no feasible point exists *)
  | Unbounded        (** objective unbounded in the optimization direction *)
  | Iteration_limit  (** simplex iteration budget exhausted *)
  | Node_limit       (** branch-and-bound node budget exhausted *)
  | Time_limit       (** wall-clock deadline passed ({!Clock}) *)
  | Feasible         (** a feasible (integer) point found, optimality not proven *)

let to_string = function
  | Optimal -> "optimal"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Iteration_limit -> "iteration-limit"
  | Node_limit -> "node-limit"
  | Time_limit -> "time-limit"
  | Feasible -> "feasible"

let pp ppf s = Fmt.string ppf (to_string s)

let is_ok = function
  | Optimal | Feasible -> true
  | Infeasible | Unbounded | Iteration_limit | Node_limit | Time_limit -> false
