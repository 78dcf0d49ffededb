let src = Logs.Src.create "etransform.dr" ~doc:"disaster-recovery planner"

module Log = (val Logs.src_log src : Logs.LOG)

(* A failure scenario, already compiled down to target indices: which
   sites fail together, and how much data a primary->backup link can
   evacuate inside the early-warning window.  [lib/scenario] derives
   these from DC geography; this planner only consumes them. *)
type scenario = {
  events : int list array;
  evac_mb : float option;
}

type options = {
  omega : float option;
  economies_of_scale : bool;
  reserve : float;
  milp : Lp.Milp.options;
  scenario : scenario option;
  max_latency_ms : float option;
}

let default_options =
  {
    omega = Some 0.6;
    economies_of_scale = false;
    reserve = 0.15;
    milp = Solver.default_milp_options;
    scenario = None;
    max_latency_ms = None;
  }

(* The scenario in effect: absent one, each site fails alone — exactly
   the paper's single-failure sharing, so the generalized stage-2 model
   below reduces to the historical one row for row. *)
let effective_events scenario n =
  match scenario with
  | Some s when Array.length s.events > 0 -> s.events
  | _ -> Array.init n (fun a -> [ a ])

let effective_evac scenario =
  match scenario with None -> None | Some s -> s.evac_mb

(* co_fail.(a).(b): site [b] fails in EVERY event that takes out site
   [a], so [b] is useless as a backup for a group whose primary is [a] —
   the pairing would survive no failure of [a].  This is deliberately
   NOT "a and b share some event": under multi-failure planning the
   events include unions of independent regions, where every site pair
   co-occurs somewhere yet most pairings still protect most events —
   those are capacity-sizing events, not exclusions.  Only deterministic
   co-failure (b inside a's correlated region, under every union) kills
   the pairing.  With singleton events this reduces to [a = b]. *)
let co_fail_matrix events n =
  let co = Array.make_matrix n n true in
  let appears = Array.make n false in
  Array.iter
    (fun ev ->
      List.iter
        (fun a ->
          if a >= 0 && a < n then begin
            appears.(a) <- true;
            for b = 0 to n - 1 do
              if not (List.mem b ev) then co.(a).(b) <- false
            done
          end)
        ev)
    events;
  (* A site no event touches never fails; nothing is excluded for it. *)
  for a = 0 to n - 1 do
    if not appears.(a) then
      for b = 0 to n - 1 do
        co.(a).(b) <- false
      done
  done;
  co

(* Stage 1 runs against a shrunk estate so stage 2 has room for pools. *)
let with_reserved_capacity asis reserve =
  let targets =
    Array.map
      (fun (dc : Data_center.t) ->
        let cap =
          max 1 (int_of_float (float_of_int dc.Data_center.capacity *. (1.0 -. reserve)))
        in
        { dc with Data_center.capacity = cap })
      asis.Asis.targets
  in
  { asis with Asis.targets }

(* Stage 2: given primaries, choose each group's secondary and size the
   shared pools exactly.  With a scenario the pools are sized per failure
   event (every site of an event fails at once, so one pool must absorb
   all their failovers together), co-failing sites are excluded as
   backups, and early-warning evacuation rows bound the data each
   primary->backup link must move inside the warning window. *)
let secondary_model ?scenario asis (primary : int array) =
  let open Lp in
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let events = effective_events scenario n in
  let evac_mb = effective_evac scenario in
  let co_fail = co_fail_matrix events n in
  let model = Model.create ~name:(asis.Asis.name ^ "_dr_stage2") () in
  let col_suffix = Array.init n string_of_int in
  let y =
    Lp_builder.init_blocks m [||] (fun i ->
        let row_prefix = "Y_" ^ string_of_int i ^ "_" in
        Array.init n (fun b ->
            if
              b <> primary.(i)
              && App_group.allowed asis.Asis.groups.(i) b
              && not co_fail.(primary.(i)).(b)
            then
              Some (Model.add_var model ~binary:true (row_prefix ^ col_suffix.(b)))
            else None))
  in
  let g = Array.init n (fun b -> Model.add_var model ("G_" ^ col_suffix.(b))) in
  let ones = Array.make n 1.0 in
  for i = 0 to m - 1 do
    if Array.for_all Option.is_none y.(i) then
      failwith
        (Printf.sprintf "Dr_planner: group %d has no candidate secondary" i);
    Model.add_eq model ("backup_" ^ string_of_int i) (Model.Linexpr.dot ones y.(i))
      1.0
  done;
  (* [groups p] are the groups satisfying [p], in order; [backups gs b]
     their secondary candidates at site [b], as a column for
     {!Lp.Model.Linexpr.dot}. *)
  let groups p = Array.of_list (List.filter p (List.init m Fun.id)) in
  let backups gs b =
    Lp_builder.init_blocks (Array.length gs) None (fun k -> y.(gs.(k)).(b))
  in
  let servers gs =
    Array.map (fun i -> float_of_int asis.Asis.groups.(i).App_group.servers) gs
  in
  (* Pool sizing per (failure event e, pool site b): when event [e]
     strikes, every group whose primary is inside it fails over at once,
     so the pool at [b] must cover their joint demand.  With the default
     singleton events this is exactly the historical one row per
     (primary site, pool site). *)
  Array.iteri
    (fun e ev ->
      let hit = Array.make n false in
      List.iter (fun a -> if a >= 0 && a < n then hit.(a) <- true) ev;
      let gs = groups (fun i -> hit.(primary.(i))) in
      let w = servers gs in
      for b = 0 to n - 1 do
        if not (List.mem b ev) then begin
          (* G_b - demand, written with the terms in variable order (the
             pools come after every Y) so that the row needs no sort. *)
          let demand = Model.Linexpr.dot w (backups gs b) in
          Model.add_ge model
            ("pool_" ^ string_of_int e ^ "_" ^ col_suffix.(b))
            Model.Linexpr.(add (scale (-1.0) demand) (var g.(b)))
            0.0
        end
      done)
    events;
  (* Early-warning evacuation: the data of the groups failing over from
     primary [a] to backup [b] must fit through that link inside the
     warning window (bandwidth x window, precompiled into [evac_mb]). *)
  (match evac_mb with
  | None -> ()
  | Some budget ->
      let data i = asis.Asis.groups.(i).App_group.data_mb_month in
      for a = 0 to n - 1 do
        let gs = groups (fun i -> primary.(i) = a && data i > 0.0) in
        let w = Array.map data gs in
        for b = 0 to n - 1 do
          if a <> b then begin
            let col = backups gs b in
            if Array.exists Option.is_some col then
              Model.add_le model
                ("evac_" ^ col_suffix.(a) ^ "_" ^ col_suffix.(b))
                (Model.Linexpr.dot w col) budget
          end
        done
      done);
  (* Full capacity minus the primary load already committed. *)
  let load = Array.make n 0 in
  Array.iteri
    (fun i a -> load.(a) <- load.(a) + asis.Asis.groups.(i).App_group.servers)
    primary;
  for b = 0 to n - 1 do
    Model.add_le model ("cap_" ^ col_suffix.(b))
      (Model.Linexpr.var g.(b))
      (float_of_int (asis.Asis.targets.(b).Data_center.capacity - load.(b)))
  done;
  let per_backup = Array.map (Cost_model.backup_price asis) asis.Asis.targets in
  Model.set_objective model
    (Model.Linexpr.dot per_backup (Array.map Option.some g));
  (model, y)

(* Deterministic fallback when the stage-2 MILP yields no integer point
   within its budget: assign secondaries greedily, largest groups first,
   maintaining the same pool semantics as the MILP — site [b]'s pool must
   cover the worst single-site failover, i.e. the max over primary sites
   [a] of the servers of groups with primary [a] backed up at [b], and
   primary load plus pool must fit [b]'s full capacity.  Each group takes
   the site with the cheapest incremental pool cost.  Returns [None] when
   some group fits nowhere. *)
let greedy_secondary ?scenario asis (primary : int array) =
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let events = effective_events scenario n in
  let evac_mb = effective_evac scenario in
  let co_fail = co_fail_matrix events n in
  (* Failure events whose site set contains [a]: the pools that must
     absorb a group with primary [a]. *)
  let events_of = Array.make n [] in
  Array.iteri
    (fun e ev ->
      List.iter
        (fun a -> if a >= 0 && a < n then events_of.(a) <- e :: events_of.(a))
        ev)
    events;
  let price b = Cost_model.backup_price asis asis.Asis.targets.(b) in
  let load = Array.make n 0 in
  Array.iteri
    (fun i a -> load.(a) <- load.(a) + asis.Asis.groups.(i).App_group.servers)
    primary;
  (* demand.(e).(b): failover servers landing at [b] when event [e]
     strikes; the pool at [b] is the worst event's demand. *)
  let demand = Array.make_matrix (Array.length events) n 0 in
  let evac_used = Array.make_matrix n n 0.0 in
  let pool = Array.make n 0 in
  let secondary = Array.make m (-1) in
  let order =
    List.init m Fun.id
    |> List.sort (fun i j ->
           compare
             (asis.Asis.groups.(j).App_group.servers, i)
             (asis.Asis.groups.(i).App_group.servers, j))
  in
  let place i =
    let a = primary.(i) in
    let s = asis.Asis.groups.(i).App_group.servers in
    let d = asis.Asis.groups.(i).App_group.data_mb_month in
    let pool_with b =
      List.fold_left
        (fun acc e -> max acc (demand.(e).(b) + s))
        pool.(b) events_of.(a)
    in
    let evac_ok b =
      match evac_mb with
      | None -> true
      | Some budget -> evac_used.(a).(b) +. d <= budget +. 1e-9
    in
    let best = ref (-1) and best_cost = ref infinity in
    for b = 0 to n - 1 do
      if
        b <> a
        && App_group.allowed asis.Asis.groups.(i) b
        && (not co_fail.(a).(b))
        && evac_ok b
      then begin
        let new_pool = pool_with b in
        if load.(b) + new_pool <= asis.Asis.targets.(b).Data_center.capacity
        then begin
          let cost = float_of_int (new_pool - pool.(b)) *. price b in
          if cost < !best_cost -. 1e-9 then begin
            best_cost := cost;
            best := b
          end
        end
      end
    done;
    if !best < 0 then false
    else begin
      let b = !best in
      List.iter
        (fun e ->
          demand.(e).(b) <- demand.(e).(b) + s;
          pool.(b) <- max pool.(b) demand.(e).(b))
        events_of.(a);
      evac_used.(a).(b) <- evac_used.(a).(b) +. d;
      secondary.(i) <- b;
      true
    end
  in
  if List.for_all place order then Some secondary else None

let plan ?(options = default_options) asis =
  (* Reserving more capacity than the estate can spare would make stage 1
     unsolvable outright. *)
  let max_reserve =
    let cap = float_of_int (Asis.total_target_capacity asis) in
    let servers = float_of_int (Asis.total_servers asis) in
    Float.max 0.0 (1.0 -. (servers /. cap) -. 0.02)
  in
  let builder =
    {
      Lp_builder.default_options with
      Lp_builder.economies_of_scale = options.economies_of_scale;
      omega = options.omega;
      max_latency_ms = options.max_latency_ms;
    }
  in
  (* The joint polish keeps stage 1's side constraints.  Their move rule
     does not depend on capacity, so the full estate gives the same rule
     as the reserved one stage 1 was built on. *)
  let polish = Solver.polish builder asis in
  let swaps = Asis.num_groups asis <= 120 in
  let rec attempt reserve tries =
    let reserve = Float.min reserve max_reserve in
    let stage1_asis = with_reserved_capacity asis reserve in
    let stage1 =
      Solver.consolidate ~builder ~milp:options.milp ~local_search:false
        stage1_asis
    in
    let primary = stage1.Solver.placement.Placement.primary in
    let model, y =
      secondary_model ?scenario:options.scenario asis primary
    in
    let r = Lp.Milp.solve ~options:options.milp model in
    let finish ~secondary ~status ~gap =
      let placement = Placement.with_dr ~primary ~secondary () in
      let placement, moves =
        (* The local search polishes against the exact evaluator, which
           does not see failure events or evacuation budgets; a move
           could silently re-pair a group with a co-failing backup, so
           scenario'd plans skip the polish. *)
        if options.scenario = None then polish ~swaps placement
        else (placement, 0)
      in
      Solver.make_outcome asis placement ~status ~gap
        ~nodes:(stage1.Solver.nodes + r.Lp.Milp.nodes)
        ~lp_iterations:(stage1.Solver.lp_iterations + r.Lp.Milp.lp_iterations)
        ~local_moves:moves
    in
    if Array.length r.Lp.Milp.x = 0 then begin
      (* A node or time budget can run out before branch-and-bound (or its
         dive heuristic) finds any integer point; that is not evidence of
         infeasibility.  A greedy secondary assignment over the same pool
         constraints recovers a feasible plan directly in that case. *)
      match
        if r.Lp.Milp.status = Lp.Status.Infeasible then None
        else greedy_secondary ?scenario:options.scenario asis primary
      with
      | Some secondary ->
          Log.info (fun f ->
              f "stage 2 MILP found no incumbent (%a); using greedy secondaries"
                Lp.Status.pp r.Lp.Milp.status);
          finish ~secondary ~status:Lp.Status.Feasible ~gap:1.0
      | None ->
          if tries > 0 then begin
            Log.info (fun f ->
                f "stage 2 infeasible at reserve %.2f; retrying" reserve);
            attempt (reserve +. 0.1) (tries - 1)
          end
          else
            failwith
              "Dr_planner.plan: could not fit backup pools; raise capacity"
    end
    else begin
      let milp_out =
        finish
          ~secondary:
            (Dr_builder.decode_secondaries y r.Lp.Milp.x primary
               ~n:(Asis.num_targets asis))
          ~status:r.Lp.Milp.status ~gap:r.Lp.Milp.gap
      in
      (* Same insurance as Solver.consolidate: a heuristic incumbent the
         tree never had time to improve can lose to the greedy secondary
         assignment that no-incumbent runs would have used.  While the gap
         is loose, finish both and keep the cheaper plan. *)
      if milp_out.Solver.milp_gap <= 0.05 then milp_out
      else
        match greedy_secondary ?scenario:options.scenario asis primary with
        | Some secondary ->
            let greedy_out =
              finish ~secondary ~status:r.Lp.Milp.status ~gap:r.Lp.Milp.gap
            in
            let total out =
              Evaluate.total out.Solver.summary.Evaluate.cost
            in
            if total greedy_out < total milp_out then greedy_out else milp_out
        | None -> milp_out
    end
  in
  attempt options.reserve 3

let joint_plan ?builder ?(milp = Solver.default_milp_options) asis =
  let built = Dr_builder.build ?options:builder asis in
  let r = Lp.Milp.solve ~options:milp built.Dr_builder.base.Lp_builder.model in
  if Array.length r.Lp.Milp.x = 0 then
    failwith
      (Printf.sprintf "Dr_planner.joint_plan: %s"
         (Lp.Status.to_string r.Lp.Milp.status));
  Solver.make_outcome asis
    (Dr_builder.decode built r.Lp.Milp.x)
    ~status:r.Lp.Milp.status ~gap:r.Lp.Milp.gap ~nodes:r.Lp.Milp.nodes
    ~lp_iterations:r.Lp.Milp.lp_iterations ~local_moves:0
