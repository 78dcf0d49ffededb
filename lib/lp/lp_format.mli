(** Writer for the CPLEX LP file format (and a plain solution-file format).

    eTransform's architecture (paper Fig. 5) materializes the optimization
    problem as an LP file handed to the engine and reads back a solution
    file; these writers — together with {!Lp_parse} — reproduce that
    interface. *)

(** [model_to_string m] prints [m] in CPLEX LP format:
    objective, [Subject To], [Bounds], [Generals]/[Binaries], [End]. *)
val model_to_string : Model.t -> string
val write_model_file : string -> Model.t -> unit

(** [solution_to_string m ~status ~obj x] prints a simple
    [name = value] solution file for non-zero variables. *)
val solution_to_string :
  Model.t -> status:Status.t -> obj:float -> float array -> string

(** [sanitize_name s] rewrites [s] into an identifier valid in LP files
    (CPLEX rejects names starting with a digit or [e], and operators). *)
val sanitize_name : string -> string
