let src = Logs.Src.create "etransform.solver" ~doc:"consolidation engine"

module Log = (val Logs.src_log src : Logs.LOG)

type outcome = {
  placement : Placement.t;
  summary : Evaluate.summary;
  milp_status : Lp.Status.t;
  milp_gap : float;
  nodes : int;
  lp_iterations : int;
  local_moves : int;
}

let make_outcome asis placement ~status ~gap ~nodes ~lp_iterations
    ~local_moves =
  {
    placement;
    summary = Evaluate.plan asis placement;
    milp_status = status;
    milp_gap = (if Float.is_nan gap then 1.0 else gap);
    nodes;
    lp_iterations;
    local_moves;
  }

let polish builder asis =
  let may_place = Lp_builder.may_place builder asis in
  fun ?max_rounds ~swaps placement ->
    Local_search.improve ?max_rounds ~swaps ~may_place
      ?omega:builder.Lp_builder.omega asis placement

(* The dive heuristic plus local search does nearly all the work on
   consolidation models; the LP bound stays loose under volume discounts,
   so a deep best-bound search rarely improves the incumbent.  Keep the
   default tree small and let callers raise it for certified optima.

   Every consolidation and DR root has integers and root cuts on, so it
   exports its basis and the tree warm-starts from there. *)
let default_milp_options =
  {
    Lp.Milp.default_options with
    Lp.Milp.node_limit = 24;
    time_limit = 60.0;
    gap_tol = 5e-3;
  }

(* Fallback when branch-and-bound surrenders without an incumbent: round
   the LP relaxation.  Groups (largest first) go to their highest-valued
   candidate with room, breaking ties toward cheaper assignments — the
   classic generalized-assignment rounding, which keeps the LP's global
   view of latency and capacity trade-offs.  [relax_x] is the MILP's root
   LP optimum; it is empty when that LP did not solve, and re-solving it
   here would only repeat the failure, so there is nothing to round. *)
let lp_round ~relax_x asis (built : Lp_builder.built) =
  if Array.length relax_x = 0 then None
  else begin
    let m = Asis.num_groups asis and n = Asis.num_targets asis in
    let load = Array.make n 0.0 in
    let primary = Array.make m (-1) in
    let ok = ref true in
    Array.iter
      (fun i ->
        let s = float_of_int asis.Asis.groups.(i).App_group.servers in
        let candidates =
          List.init n Fun.id
          |> List.filter_map (fun j ->
                 match built.Lp_builder.x.(i).(j) with
                 | None -> None
                 | Some v ->
                     let value = relax_x.(v.Lp.Model.id) in
                     let cost =
                       Cost_model.assign_cost asis ~group:i j
                     in
                     Some ((-.value, cost), j))
          |> List.sort compare
        in
        let placed =
          List.find_opt
            (fun (_, j) ->
              load.(j) +. s
              <= float_of_int asis.Asis.targets.(j).Data_center.capacity)
            candidates
        in
        match placed with
        | Some (_, j) ->
            primary.(i) <- j;
            load.(j) <- load.(j) +. s
        | None -> ok := false)
      (Greedy.order_by_size asis);
    if !ok then Some (Placement.non_dr primary) else None
  end

let consolidate ?(builder = Lp_builder.default_options)
    ?(milp = default_milp_options) ?(local_search = true) asis =
  (match Asis.validate asis with
  | [] -> ()
  | problems ->
      invalid_arg
        ("Solver.consolidate: invalid as-is state: "
        ^ String.concat "; " problems));
  let built = Lp_builder.build ~options:builder asis in
  Log.info (fun f -> f "model: %a" Lp.Model.pp_stats built.Lp_builder.model);
  let r = Lp.Milp.solve ~options:milp built.Lp_builder.model in
  let placement =
    if Array.length r.Lp.Milp.x > 0 then Lp_builder.decode built r.Lp.Milp.x
    else begin
      Log.warn (fun f ->
          f "MILP returned %s with no incumbent; rounding the LP relaxation"
            (Lp.Status.to_string r.Lp.Milp.status));
      match lp_round ~relax_x:r.Lp.Milp.relax_x asis built with
      | Some p -> p
      | None -> Greedy.plan asis
    end
  in
  (* Every candidate is polished under the side constraints' move rule
     and omega: the polish must not undo a pin, revisit a forbidden pair
     or leave the latency budget.  Swaps are proposed only on estates of
     at most 220 groups (120 in Dr_planner).  The gate decides plans more
     than time: swaps reach plans that single reassignments cannot, so
     raising it changes the plans large estates get.  That is a
     plan-changing decision of its own, not a speed-up. *)
  let polish =
    if local_search then polish builder asis
    else fun ?max_rounds:_ ~swaps:_ placement -> (placement, 0)
  in
  let swaps = Asis.num_groups asis <= 220 in
  let cost p = Evaluate.total (Evaluate.plan asis p).Evaluate.cost in
  let placement, moves = polish ~swaps placement in
  (* An early heuristic incumbent is progress for the gap report, but a
     budget-starved tree can stop at one the old no-incumbent rounding
     fallback would have beaten.  While the proven gap stays loose, polish
     the rounded relaxation as a full peer candidate and keep the cheaper
     plan — the incumbent may add information, never cost plan quality. *)
  let placement, moves =
    if
      Array.length r.Lp.Milp.x > 0
      && (Float.is_nan r.Lp.Milp.gap || r.Lp.Milp.gap > 0.05)
    then
      match lp_round ~relax_x:r.Lp.Milp.relax_x asis built with
      | Some rounded when Placement.validate asis rounded = [] ->
          let rounded, rmoves = polish ~swaps rounded in
          if cost rounded < cost placement then (rounded, rmoves)
          else (placement, moves)
      | _ -> (placement, moves)
    else (placement, moves)
  in
  (* When no side constraint restricts the plan, keep the better of the
     engine's plan and the polished greedy plan — a cheap insurance against
     budget-starved MILP runs. *)
  let placement, moves =
    if Lp_builder.constrained builder then (placement, moves)
    else
      match Greedy.plan asis with
      | g ->
          let g, gmoves = polish ~swaps:false ~max_rounds:2 g in
          if Placement.validate asis g = [] && cost g < cost placement then
            (g, gmoves)
          else (placement, moves)
      | exception Failure _ -> (placement, moves)
  in
  make_outcome asis placement ~status:r.Lp.Milp.status ~gap:r.Lp.Milp.gap
    ~nodes:r.Lp.Milp.nodes ~lp_iterations:r.Lp.Milp.lp_iterations
    ~local_moves:moves
