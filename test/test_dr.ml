(* Disaster recovery: the joint §IV MILP, the two-stage planner, and their
   agreement on small instances. *)

open Etransform

let small_asis ?(groups = 6) () =
  Fixtures.synthetic ~seed:21 ~groups ~targets:3 ()

let test_joint_model_dimensions () =
  let asis = Fixtures.asis () in
  let model = (Dr_builder.build asis).Dr_builder.base.Lp_builder.model in
  (* X and Y: 4x3 each; G: 3; J: 4 * 3 * 2. *)
  Alcotest.(check int) "vars" (12 + 12 + 3 + 24) (Lp.Model.num_vars model)

let test_joint_plan_valid () =
  let asis = small_asis () in
  let o = Dr_planner.joint_plan asis in
  Alcotest.(check (list string)) "feasible DR plan" []
    (Placement.validate asis o.Solver.placement);
  match o.Solver.placement.Placement.secondary with
  | None -> Alcotest.fail "joint plan must set secondaries"
  | Some _ -> ()

let test_joint_pool_sizing_matches_evaluator () =
  (* The G variables in the solved joint model must equal the evaluator's
     shared-pool computation for the decoded plan. *)
  let asis = small_asis () in
  let built = Dr_builder.build asis in
  let r = Lp.Milp.solve built.Dr_builder.base.Lp_builder.model in
  Alcotest.(check bool) "has solution" true (Array.length r.Lp.Milp.x > 0);
  let p = Dr_builder.decode built r.Lp.Milp.x in
  let pools = Placement.backup_servers asis p in
  Array.iteri
    (fun b g ->
      let model_pool = r.Lp.Milp.x.(g.Lp.Model.id) in
      Alcotest.(check bool)
        (Printf.sprintf "pool %d covers requirement" b)
        true
        (model_pool >= pools.(b) -. 1e-6))
    built.Dr_builder.g

let test_two_stage_valid () =
  let asis = Fixtures.synthetic ~seed:23 ~groups:20 ~targets:5 () in
  let o = Dr_planner.plan asis in
  Alcotest.(check (list string)) "feasible" []
    (Placement.validate asis o.Solver.placement)

let test_two_stage_near_joint () =
  (* The decomposition may lose some optimality but must stay within a
     reasonable factor of the joint model on small instances. *)
  let asis = small_asis ~groups:8 () in
  let joint = Dr_planner.joint_plan asis in
  let two_stage = Dr_planner.plan asis in
  let cj = Evaluate.total joint.Solver.summary.Evaluate.cost in
  let ct = Evaluate.total two_stage.Solver.summary.Evaluate.cost in
  Alcotest.(check bool)
    (Printf.sprintf "two-stage %.3g within 25%% of joint %.3g" ct cj)
    true
    (ct <= cj *. 1.25 +. 1e-6)

let test_omega_in_joint () =
  let asis = small_asis ~groups:8 () in
  let o =
    Dr_planner.joint_plan
      ~builder:{ Lp_builder.default_options with Lp_builder.omega = Some 0.5 }
      asis
  in
  let counts = Array.make (Asis.num_targets asis) 0 in
  Array.iter (fun j -> counts.(j) <- counts.(j) + 1)
    o.Solver.placement.Placement.primary;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "omega bound" true
        (float_of_int c <= 0.5 *. float_of_int (Asis.num_groups asis) +. 1e-9))
    counts

(* The joint model carries stage 1's shared-risk rows: the optimum without
   them puts groups 2 and 3 of [small_asis] at one site. *)
let test_joint_plan_separates () =
  let asis = small_asis () in
  let groups = Array.copy asis.Asis.groups in
  groups.(2) <- { (groups.(2)) with App_group.colocate_avoid = [ 3 ] };
  let asis = { asis with Asis.groups } in
  let o = Dr_planner.joint_plan ~builder:Lp_builder.default_options asis in
  Alcotest.(check (list string)) "feasible DR plan" []
    (Placement.validate asis o.Solver.placement)

(* The joint model carries stage 1's latency budget. *)
let test_joint_plan_latency_budget () =
  let asis = Datasets.Enterprise1.asis ~scale:0.1 () in
  let o =
    Dr_planner.joint_plan
      ~builder:{ Lp_builder.default_options with Lp_builder.max_latency_ms = Some 16.2 }
      asis
  in
  Alcotest.(check (list int)) "no group off budget" []
    (Fixtures.off_budget asis ~budget_ms:16.2 o.Solver.placement)

(* The LP file of [Pipeline.run ~dr] is the joint model built with the
   run's builder: omega puts one [impact_] row per site in it. *)
let test_pipeline_dr_lp_file () =
  let asis = Datasets.Enterprise1.asis ~scale:0.1 () in
  let dir = Filename.temp_file "etransform_dr" "" in
  Sys.remove dir;
  let builder = { Lp_builder.default_options with Lp_builder.omega = Some 0.4 } in
  let a = Pipeline.run ~builder ~dr:true ~workdir:dir asis in
  let model = Lp.Lp_parse.read_model_file (Option.get a.Pipeline.lp_file) in
  List.iter (Option.iter Sys.remove) [ a.Pipeline.lp_file; a.Pipeline.solution_file ];
  Sys.rmdir dir;
  let impact =
    List.filter
      (fun k -> String.starts_with ~prefix:"impact_" (Lp.Model.constr_name model k))
      (List.init (Lp.Model.num_constrs model) Fun.id)
  in
  Alcotest.(check int) "impact rows" (Asis.num_targets asis) (List.length impact)

(* Secondaries stay on their groups' allowed sites: group 0 may use A and
   C only, and from this plan its cheapest backup move would be to B. *)
let test_allowed_secondaries () =
  let asis = Fixtures.asis () in
  let groups = Array.copy asis.Asis.groups in
  groups.(0) <- { (groups.(0)) with App_group.allowed_dcs = Some [| 0; 2 |] };
  let asis = { asis with Asis.groups } in
  let allowed name (p : Placement.t) =
    Alcotest.(check (list string)) (name ^ ": feasible") []
      (Placement.validate asis p);
    Array.iteri
      (fun i b ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: group %d backed up at an allowed site" name i)
          true
          (App_group.allowed groups.(i) b))
      (Option.get p.Placement.secondary)
  in
  let start =
    Placement.with_dr ~primary:[| 0; 1; 2; 1 |] ~secondary:[| 2; 0; 0; 0 |] ()
  in
  allowed "polish" (fst (Local_search.improve asis start));
  allowed "greedy" (Greedy.plan_dr asis);
  Alcotest.(check bool) "validate rejects a disallowed secondary" true
    (Placement.validate asis
       (Placement.with_dr ~primary:[| 0; 1; 2; 1 |] ~secondary:[| 1; 0; 0; 0 |] ())
    <> [])

let test_dr_cheaper_than_asis_dr () =
  (* The paper's headline DR claim, on a synthetic mid-size estate. *)
  let asis = Fixtures.synthetic ~seed:31 ~groups:30 ~targets:6 () in
  let o = Dr_planner.plan asis in
  let planned = Evaluate.total o.Solver.summary.Evaluate.cost in
  let strawman = Evaluate.total (Evaluate.asis_with_basic_dr asis).Evaluate.cost in
  Alcotest.(check bool)
    (Printf.sprintf "planned %.3g beats as-is+DR %.3g" planned strawman)
    true (planned < strawman)

let test_backup_capacity_respected () =
  let asis = Fixtures.synthetic ~seed:37 ~groups:25 ~targets:5 () in
  let o = Dr_planner.plan asis in
  let primaries = Placement.servers_per_dc asis o.Solver.placement in
  let pools = Placement.backup_servers asis o.Solver.placement in
  Array.iteri
    (fun j (dc : Data_center.t) ->
      Alcotest.(check bool) "capacity with pools" true
        (float_of_int primaries.(j) +. pools.(j)
        <= float_of_int dc.Data_center.capacity +. 1e-9))
    asis.Asis.targets

let prop_two_stage_feasible =
  QCheck2.Test.make ~name:"two-stage DR plans always feasible" ~count:10
    QCheck2.Gen.(int_range 0 2000)
    (fun seed ->
      let asis = Fixtures.synthetic ~seed ~groups:15 ~targets:4 () in
      let o = Dr_planner.plan asis in
      Placement.validate asis o.Solver.placement = [])

(* The stage-2 model of a 12-group DR line estate, written as LP text
   and hashed: variable and row names, coefficients and their order are
   pinned, so a change to how the model is built must leave this
   literal as it is. *)
let test_secondary_model_pinned () =
  let asis =
    Harness.Line_estate.make
      { Harness.Line_estate.default with Harness.Line_estate.n_groups = 12 }
  in
  let primary = (Greedy.plan asis).Placement.primary in
  let model, _ = Dr_planner.secondary_model asis primary in
  Alcotest.(check string) "pinned digest" "58cca46fcaabca0c013a93ecdfa73d9b"
    (Digest.to_hex (Digest.string (Lp.Lp_format.model_to_string model)))

(* Every candidate path of [Dr_planner.plan] past stage 1, each reached
   by a small estate with tight sites at a node budget of 0 (the time
   limit never binds).  Each case first checks, on stage 2's model as the
   planner builds it, the condition that sends the planner down its path,
   so the pin cannot silently stop covering it; then it pins the
   outcome's digest. *)
let test_candidate_branches_pinned () =
  let milp = { Solver.default_milp_options with Lp.Milp.node_limit = 0 } in
  let options = { Dr_planner.default_options with Dr_planner.milp } in
  (* Stage 1 on the estate with [reserve] of each site held back for the
     pools, and stage 2's MILP on its primaries. *)
  let stages asis reserve =
    let hold (dc : Data_center.t) =
      let cap = float_of_int dc.Data_center.capacity *. (1.0 -. reserve) in
      { dc with Data_center.capacity = max 1 (int_of_float cap) }
    in
    let s1 =
      Solver.consolidate
        ~builder:{ Lp_builder.default_options with Lp_builder.omega = options.Dr_planner.omega }
        ~milp ~local_search:false
        { asis with Asis.targets = Array.map hold asis.Asis.targets }
    in
    let model, _ =
      Dr_planner.secondary_model asis s1.Solver.placement.Placement.primary
    in
    (s1, Lp.Milp.solve ~options:milp model)
  in
  let no_incumbent r = Array.length r.Lp.Milp.x = 0 in
  let tight ~seed ~groups ~targets capacity =
    Fixtures.synthetic ~seed ~groups ~targets ~current:4 ~capacity ()
  in
  let case name asis ~reserve ~pre digest =
    let s1, r = stages asis reserve in
    Alcotest.(check bool) (name ^ ": reached") true (pre r);
    let o = Dr_planner.plan ~options asis in
    (* The plan comes from the stages at [reserve]. *)
    Alcotest.(check int) (name ^ ": its stages")
      (s1.Solver.lp_iterations + r.Lp.Milp.lp_iterations)
      o.Solver.lp_iterations;
    Alcotest.(check string) (name ^ ": pinned") digest (Fixtures.outcome_digest o)
  in
  (* Stage 2 at the first reserve ends without an incumbent, and the
     greedy secondaries do not fit either: the reserve is raised. *)
  let asis = tight ~seed:4 ~groups:8 ~targets:3 (30, 60) in
  Alcotest.(check bool) "reserve retry: first reserve fails" true
    (no_incumbent (snd (stages asis 0.15)));
  case "reserve retry" asis ~reserve:(0.15 +. 0.1)
    ~pre:(fun r -> not (no_incumbent r))
    "5e037cbbb8d7b4bdf4ebe42650d08a63";
  (* After one retry, stage 2 stops on its node budget without an
     incumbent: the greedy secondaries are served. *)
  case "greedy secondary" (tight ~seed:36 ~groups:16 ~targets:4 (30, 60))
    ~reserve:(0.15 +. 0.1)
    ~pre:(fun r -> no_incumbent r && r.Lp.Milp.status <> Lp.Status.Infeasible)
    "770443fde049e9ac18d506c2f9d46362";
  (* Stage 2's incumbent is 5% or more above its bound: the greedy
     secondaries are finished beside it. *)
  case "DR insurance" (tight ~seed:0 ~groups:16 ~targets:4 (60, 120))
    ~reserve:0.15
    ~pre:(fun r -> (not (no_incumbent r)) && r.Lp.Milp.gap > 0.05)
    "ed47bb848162a2c88c1b0318ffff47d4"

(* The spread omega binds on the served DR plan: no site holds more than
   omega m primaries after the polish. *)
let test_omega_served () =
  let asis = Datasets.Florida.asis ~scale:0.25 () in
  let m = Asis.num_groups asis in
  List.iter
    (fun w ->
      let o =
        Dr_planner.plan
          ~options:{ Dr_planner.default_options with Dr_planner.omega = Some w }
          asis
      in
      let counts = Array.make (Asis.num_targets asis) 0 in
      Array.iter
        (fun j -> counts.(j) <- counts.(j) + 1)
        o.Solver.placement.Placement.primary;
      let busiest = Array.fold_left max 0 counts in
      Alcotest.(check bool)
        (Printf.sprintf "omega %.2f: busiest site %d of %d groups" w busiest m)
        true
        (float_of_int busiest <= (w *. float_of_int m) +. 1e-9))
    [ 0.4; 0.3; 0.25 ]

(* A stage-1 latency budget binds on the served plan's primaries. *)
let test_latency_budget_served () =
  let asis = Datasets.Enterprise1.asis ~scale:0.3 () in
  let o =
    Dr_planner.plan
      ~options:
        { Dr_planner.default_options with Dr_planner.max_latency_ms = Some 16.2 }
      asis
  in
  Alcotest.(check (list int)) "no group off budget" []
    (Fixtures.off_budget asis ~budget_ms:16.2 o.Solver.placement)

(* [Pipeline.run ~dr] hands its builder's latency budget to the DR
   planner, and refuses the builder options the planner has no place
   for. *)
let test_pipeline_dr_builder () =
  let asis = Datasets.Enterprise1.asis ~scale:0.3 () in
  let builder =
    { Lp_builder.default_options with Lp_builder.max_latency_ms = Some 16.2 }
  in
  let o = (Pipeline.run ~builder ~dr:true asis).Pipeline.outcome in
  Alcotest.(check (list int)) "no group off budget" []
    (Fixtures.off_budget asis ~budget_ms:16.2 o.Solver.placement);
  List.iter
    (fun (name, builder) ->
      match Pipeline.run ~builder ~dr:true asis with
      | _ -> Alcotest.failf "%s: accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("pins", { Lp_builder.default_options with Lp_builder.pins = [ (0, 0) ] });
      ( "forbids",
        { Lp_builder.default_options with Lp_builder.forbids = [ (0, 0) ] } );
      ( "fixed charges",
        { Lp_builder.default_options with Lp_builder.fixed_charges = true } );
    ]

let suite =
  [
    Alcotest.test_case "joint model dimensions" `Quick test_joint_model_dimensions;
    Alcotest.test_case "joint plan valid" `Quick test_joint_plan_valid;
    Alcotest.test_case "joint pools cover requirements" `Quick test_joint_pool_sizing_matches_evaluator;
    Alcotest.test_case "two-stage valid" `Quick test_two_stage_valid;
    Alcotest.test_case "two-stage near joint" `Slow test_two_stage_near_joint;
    Alcotest.test_case "omega in joint model" `Quick test_omega_in_joint;
    Alcotest.test_case "joint plan: shared-risk rows" `Quick
      test_joint_plan_separates;
    Alcotest.test_case "joint plan: latency budget" `Quick
      test_joint_plan_latency_budget;
    Alcotest.test_case "pipeline: DR LP file" `Quick test_pipeline_dr_lp_file;
    Alcotest.test_case "allowed secondaries" `Quick test_allowed_secondaries;
    Alcotest.test_case "DR beats as-is strawman" `Quick test_dr_cheaper_than_asis_dr;
    Alcotest.test_case "pool capacity respected" `Quick test_backup_capacity_respected;
    Alcotest.test_case "stage-2 model: pinned literal" `Quick
      test_secondary_model_pinned;
    Alcotest.test_case "candidate branches pinned" `Quick
      test_candidate_branches_pinned;
    Alcotest.test_case "omega served" `Quick test_omega_served;
    Alcotest.test_case "latency budget served" `Quick test_latency_budget_served;
    Alcotest.test_case "pipeline: DR builder options" `Quick test_pipeline_dr_builder;
    QCheck_alcotest.to_alcotest prop_two_stage_feasible;
  ]
