(** The end-to-end eTransform pipeline of the paper's Fig. 5: as-is state ->
    transformation & consolidation module -> LP file -> optimization engine
    -> solution file -> output generation -> to-be state. *)

type artifacts = {
  outcome : Solver.outcome;
  lp_file : string option;        (** path of the exported model, if any *)
  solution_file : string option;  (** path of the exported solution *)
}

(** [run asis] plans consolidation (or integrated DR when [dr] is set) and,
    when [workdir] is given, materializes the LP file and solution file
    exactly as the paper's architecture does.  Under [dr] the builder's
    [omega], [economies_of_scale] and [max_latency_ms] go to the DR
    planner's stage 1; the planner has no pins, forbids nor fixed
    charges, so a builder that sets any of them raises
    [Invalid_argument].  The LP file under [dr] is the joint model of
    {!Dr_builder} with the same builder, not the two stages the planner
    solves. *)
val run :
  ?builder:Lp_builder.options ->
  ?dr:bool ->
  ?workdir:string ->
  Asis.t -> artifacts
