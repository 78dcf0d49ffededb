(* MILP construction: the §III model, its options, and decode. *)

open Etransform

let solve ?(options = Lp_builder.default_options) asis =
  let built = Lp_builder.build ~options asis in
  let r = Lp.Milp.solve built.Lp_builder.model in
  (built, r)

let test_model_dimensions () =
  let asis = Fixtures.asis () in
  let built = Lp_builder.build asis in
  let m = built.Lp_builder.model in
  (* 4 groups x 3 targets assignment binaries; 4 assignment + 3 capacity rows. *)
  Alcotest.(check int) "vars" 12 (Lp.Model.num_vars m);
  Alcotest.(check int) "rows" 7 (Lp.Model.num_constrs m)

let test_solves_to_optimal_assignment () =
  let asis = Fixtures.asis () in
  let built, r = solve asis in
  Alcotest.(check string) "optimal" "optimal" (Lp.Status.to_string r.Lp.Milp.status);
  let p = Lp_builder.decode built r.Lp.Milp.x in
  Alcotest.(check (list string)) "feasible" [] (Placement.validate asis p);
  (* Exhaustive check over all 3^4 assignments with the linear objective. *)
  let best = ref infinity in
  let assign = Array.make 4 0 in
  let rec enum i =
    if i = 4 then begin
      let p = Placement.non_dr (Array.copy assign) in
      if Placement.validate asis p = [] then begin
        let c =
          Array.to_list assign
          |> List.mapi (fun g j ->
                 Cost_model.assign_cost asis ~group:g j)
          |> List.fold_left ( +. ) 0.0
        in
        if c < !best then best := c
      end
    end
    else
      for j = 0 to 2 do
        assign.(i) <- j;
        enum (i + 1)
      done
  in
  enum 0;
  Alcotest.(check (float 1e-6)) "matches brute force" !best r.Lp.Milp.obj

let test_pins () =
  let asis = Fixtures.asis () in
  let options = { Lp_builder.default_options with Lp_builder.pins = [ (0, 2) ] } in
  let built, r = solve ~options asis in
  let p = Lp_builder.decode built r.Lp.Milp.x in
  Alcotest.(check int) "group 0 pinned to C" 2 p.Placement.primary.(0)

let test_forbids () =
  let asis = Fixtures.asis () in
  let options =
    { Lp_builder.default_options with
      Lp_builder.forbids = [ (0, 0); (0, 2) ] }
  in
  let built, r = solve ~options asis in
  let p = Lp_builder.decode built r.Lp.Milp.x in
  Alcotest.(check int) "group 0 forced to B" 1 p.Placement.primary.(0)

let test_omega_spreads () =
  let asis = Fixtures.asis () in
  (* At most half the groups per site -> at least two sites. *)
  let options = { Lp_builder.default_options with Lp_builder.omega = Some 0.5 } in
  let built, r = solve ~options asis in
  let p = Lp_builder.decode built r.Lp.Milp.x in
  let used =
    Array.to_list p.Placement.primary |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check bool) "at least two sites" true (used >= 2);
  let counts = Array.make 3 0 in
  Array.iter (fun j -> counts.(j) <- counts.(j) + 1) p.Placement.primary;
  Array.iter
    (fun c -> Alcotest.(check bool) "omega respected" true (c <= 2))
    counts

let test_capacity_binds () =
  let asis = Fixtures.asis () in
  let built, r = solve asis in
  let p = Lp_builder.decode built r.Lp.Milp.x in
  let loads = Placement.servers_per_dc asis p in
  Array.iteri
    (fun j l ->
      Alcotest.(check bool) "capacity" true
        (l <= asis.Asis.targets.(j).Data_center.capacity))
    loads

let test_shared_risk_rows () =
  let asis = Fixtures.asis () in
  let g0 = { (Fixtures.group_0 ()) with App_group.colocate_avoid = [ 3 ] } in
  let groups = Array.copy asis.Asis.groups in
  groups.(0) <- g0;
  let asis = { asis with Asis.groups = groups } in
  let built, r = solve asis in
  let p = Lp_builder.decode built r.Lp.Milp.x in
  Alcotest.(check bool) "groups separated" true
    (p.Placement.primary.(0) <> p.Placement.primary.(3))

(* A shared-risk pair named by the higher-indexed group alone still gets
   its rows: [Placement.validate] reads every list, so a plan that put
   groups 0 and 2 together would be refused after it was served. *)
let test_one_sided_shared_risk () =
  let asis = Fixtures.synthetic ~seed:21 ~groups:6 ~targets:3 () in
  let groups = Array.copy asis.Asis.groups in
  groups.(2) <- { (groups.(2)) with App_group.colocate_avoid = [ 0 ] };
  let asis = { asis with Asis.groups } in
  let model = (Lp_builder.build asis).Lp_builder.model in
  let risk =
    List.filter
      (fun i ->
        String.starts_with ~prefix:"risk_" (Lp.Model.constr_name model i))
      (List.init (Lp.Model.num_constrs model) Fun.id)
  in
  Alcotest.(check (list string)) "one row per target, pair (0, 2)"
    [ "risk_0_2_0"; "risk_0_2_1"; "risk_0_2_2" ]
    (List.map (Lp.Model.constr_name model) risk);
  let o = Solver.consolidate asis in
  Alcotest.(check (list string)) "served plan validates" []
    (Placement.validate asis o.Solver.placement);
  let o = Dr_planner.plan asis in
  Alcotest.(check (list string)) "served DR plan validates" []
    (Placement.validate asis o.Solver.placement)

let test_eos_objective_matches_curve () =
  (* With volume discounts, the MILP objective must equal the evaluator's
     exact space cost, not the first-tier approximation. *)
  let discounted_dc =
    Data_center.v ~name:"D" ~capacity:12
      ~space_segments:
        [ { Lp.Piecewise.width = 6.0; unit_cost = 100.0 };
          { Lp.Piecewise.width = 8.0; unit_cost = 50.0 } ]
      ~wan_per_mb:0.0 ~power_per_kwh:0.0 ~admin_monthly:0.0
      ~user_latency_ms:[| 1.0; 1.0 |] ()
  in
  let asis =
    Asis.v ~params:Fixtures.params ~name:"eos"
      ~groups:[| Fixtures.group_2 (); Fixtures.group_3 () |]
      ~targets:[| discounted_dc |]
      ~user_locations:[| "a"; "b" |]
      ~current:[| Fixtures.target_a () |]
      ~current_placement:[| 0; 0 |] ()
  in
  let options =
    { Lp_builder.default_options with Lp_builder.economies_of_scale = true }
  in
  let _, r = solve ~options asis in
  (* 7 servers: 6 @100 + 1 @50 = 650 space; no other costs are zero... power
     0.1kW*100h*0 = 0, labor 0, wan 0. *)
  Alcotest.(check (float 1e-6)) "discount priced exactly" 650.0 r.Lp.Milp.obj

let test_pin_on_forbidden_rejected () =
  let asis = Fixtures.asis () in
  let options =
    { Lp_builder.default_options with
      Lp_builder.pins = [ (0, 1) ];
      forbids = [ (0, 1) ] }
  in
  Alcotest.check_raises "conflicting pin"
    (Invalid_argument "Lp_builder.build: pin targets a forbidden pair")
    (fun () -> ignore (Lp_builder.build ~options asis))

let test_lp_file_export () =
  let asis = Fixtures.asis () in
  let built = Lp_builder.build asis in
  let text = Lp.Lp_format.model_to_string built.Lp_builder.model in
  Alcotest.(check bool) "has assignment rows" true
    (Astring_contains.contains text "assign_0");
  Alcotest.(check bool) "has capacity rows" true
    (Astring_contains.contains text "cap_0");
  (* The exported file round-trips through the parser to the same optimum. *)
  let m' = Lp.Lp_parse.model_of_string text in
  let r = Lp.Milp.solve built.Lp_builder.model and r' = Lp.Milp.solve m' in
  Alcotest.(check (float 1e-6)) "same optimum" r.Lp.Milp.obj r'.Lp.Milp.obj

(* On random small instances the MILP optimum must match brute force over
   all assignments (linear objective, no EoS). *)
let prop_matches_brute_force =
  Check.prop ~count:20 "builder MILP matches brute force"
    (Fixtures.seed_arb 2000)
    (fun seed ->
      let asis = Fixtures.synthetic ~seed ~groups:6 ~targets:3 () in
      let m = Asis.num_groups asis and n = Asis.num_targets asis in
      let best = ref infinity in
      let assign = Array.make m 0 in
      let rec enum i =
        if i = m then begin
          let p = Placement.non_dr (Array.copy assign) in
          if Placement.validate asis p = [] then begin
            let c = ref 0.0 in
            Array.iteri
              (fun g j ->
                c := !c +. Cost_model.assign_cost asis ~group:g j)
              assign;
            if !c < !best then best := !c
          end
        end
        else
          for j = 0 to n - 1 do
            assign.(i) <- j;
            enum (i + 1)
          done
      in
      enum 0;
      let _, r = solve asis in
      if r.Lp.Milp.status <> Lp.Status.Optimal then
        Fixtures.errorf "status %s" (Lp.Status.to_string r.Lp.Milp.status)
      else if
        Float.abs (r.Lp.Milp.obj -. !best) > 1e-5 *. (1.0 +. Float.abs !best)
      then Fixtures.errorf "milp %g vs brute %g" r.Lp.Milp.obj !best
      else Ok ())

(* The LP text of two built models, pinned: variable and row names and the
   order of every row's and the objective's terms. *)
let test_lp_text_pinned () =
  let md5 asis =
    Digest.to_hex
      (Digest.string
         (Lp.Lp_format.model_to_string (Lp_builder.build asis).Lp_builder.model))
  in
  Alcotest.(check string) "line 12" "455b43ae6bb696bf2868dc48ce0846c4"
    (md5 (Fixtures.line ()));
  Alcotest.(check string) "synthetic 30x6" "ba3dff4de7c4387ca00d136361c0d24c"
    (md5 (Fixtures.synthetic ~seed:7 ~groups:30 ~targets:6 ()))

(* [Simplex.of_model] of four built models, hashed: the variable count,
   every bound, objective coefficient, row sense and rhs, and every row
   term's id and coefficient, floats as their IEEE bits.  A change to how
   the models are built or canonicalized must leave these literals as
   they are. *)
let input_digest (inp : Lp.Simplex.input) =
  let buf = Buffer.create 65536 in
  let int i = Buffer.add_string buf (Printf.sprintf "%d " i) in
  let flt f = Buffer.add_string buf (Printf.sprintf "%Lx " (Int64.bits_of_float f)) in
  int inp.Lp.Simplex.nvars;
  Array.iter flt inp.Lp.Simplex.lo;
  Array.iter flt inp.Lp.Simplex.hi;
  Array.iter flt inp.Lp.Simplex.obj;
  flt inp.Lp.Simplex.obj_const;
  Buffer.add_string buf (if inp.Lp.Simplex.minimize then "min\n" else "max\n");
  Array.iter
    (fun { Lp.Model.ids; coefs; sense; rhs } ->
      Buffer.add_string buf
        (match sense with Lp.Model.Le -> "<= " | Lp.Model.Ge -> ">= " | Lp.Model.Eq -> "= ");
      flt rhs;
      Array.iteri
        (fun k j ->
          int j;
          flt coefs.(k))
        ids;
      Buffer.add_char buf '\n')
    inp.Lp.Simplex.rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_solver_input_pinned () =
  let digest model = input_digest (Lp.Simplex.of_model model) in
  let line = Fixtures.line () in
  Alcotest.(check string) "line 12"
    "6cb0b97c21c1be1940ae53c6712b2b9a"
    (digest (Lp_builder.build line).Lp_builder.model);
  let synth = Fixtures.synthetic ~seed:7 ~groups:30 ~targets:6 () in
  let groups = Array.copy synth.Asis.groups in
  List.iter
    (fun (i, avoid) ->
      groups.(i) <- { (groups.(i)) with App_group.colocate_avoid = avoid })
    [ (0, [ 5; 9 ]); (4, [ 2 ]) ];
  let synth = { synth with Asis.groups } in
  let options =
    {
      Lp_builder.economies_of_scale = true;
      fixed_charges = true;
      omega = Some 0.3;
      pins = [ (1, 2) ];
      forbids = [ (0, 0); (3, 1) ];
      max_latency_ms = Some 40.0;
    }
  in
  let built = Lp_builder.build ~options synth in
  (* Group 4's list names group 2 on one side only: its rows
     [risk_2_4_j] are part of the model. *)
  Alcotest.(check string) "synthetic 30x6, every option"
    "af6e98723dc3d3f3b94d2e9a591d93bb"
    (digest built.Lp_builder.model);
  let dr = Fixtures.line () in
  let primary = (Greedy.plan dr).Placement.primary in
  let model, _ = Dr_planner.secondary_model dr primary in
  Alcotest.(check string) "stage-2 model"
    "f56b5bae539fe819ad43d4f29f01f61b" (digest model);
  let n = Asis.num_targets dr in
  let scenario =
    {
      Dr_planner.events = Array.init (n - 1) (fun a -> if a = 0 then [ 0; 1 ] else [ a + 1 ]);
      evac_mb = Some 2000.0;
    }
  in
  let model, _ = Dr_planner.secondary_model ~scenario dr primary in
  Alcotest.(check string) "stage-2 model, events and evacuation"
    "22c37869f2867e8df537041c52d54ac6"
    (digest model);
  let joint = Fixtures.synthetic ~seed:11 ~groups:8 ~targets:4 () in
  let options = { Lp_builder.default_options with Lp_builder.omega = Some 0.5 } in
  Alcotest.(check string) "joint DR model"
    "99690e9c2e3c7ba227d216849096e5d2"
    (digest (Dr_builder.build ~options joint).Dr_builder.base.Lp_builder.model)

(* Building and solving a served model forces no minor collection.  The
   runtime forces one when [Array.make] (or [init], [map], [of_list])
   fills a block of more than 256 words with a young value, and that
   collection promotes everything built so far; the runtime's own
   [EV_C_FORCE_MINOR_MAKE_VECT] counter counts them.  Two classes whose
   models pass 256 columns, solved at the node budget they are served
   with: a line-36 estate (360 binaries) and Florida x0.45 (430). *)
let test_no_forced_collection () =
  let forced = ref 0 in
  let cb =
    Runtime_events.Callbacks.create
      ~runtime_counter:(fun _ _ c v ->
        if c = Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT then
          forced := !forced + v)
      ()
  in
  Runtime_events.start ();
  Fun.protect ~finally:Runtime_events.pause @@ fun () ->
  let cur = Runtime_events.create_cursor None in
  let drain () = ignore (Runtime_events.read_poll cur cb None) in
  let count body =
    let job =
      match
        Service.Batch.job_of_line ~resolve:Harness.Line_jobs.resolve body
      with
      | Ok job -> job
      | Error e -> Alcotest.fail e
    in
    let asis = Service.Job.build_estate job in
    let options =
      { Lp_builder.default_options with omega = job.Service.Job.omega }
    in
    drain ();
    forced := 0;
    let built = Lp_builder.build ~options asis in
    let r =
      Lp.Milp.solve ~options:(Service.Job.milp_options job)
        built.Lp_builder.model
    in
    drain ();
    Alcotest.(check bool) "solved" true (Array.length r.Lp.Milp.x > 0);
    !forced
  in
  Alcotest.(check int) "line 36" 0
    (count
       {|{"id":"l36","estate":{"kind":"line","n_groups":36,"servers_per_group":4,"capacity":180,"space_step":60,"frac_at_0":0.5,"penalty":40},"milp":{"nodes":4}}|});
  Alcotest.(check int) "florida x0.45" 0
    (count
       {|{"id":"fl","estate":{"kind":"dataset","name":"florida","scale":0.45},"omega":0.75,"milp":{"nodes":2}}|})

let suite =
  [
    Alcotest.test_case "model dimensions" `Quick test_model_dimensions;
    Alcotest.test_case "optimal vs exhaustive" `Quick test_solves_to_optimal_assignment;
    Alcotest.test_case "pins" `Quick test_pins;
    Alcotest.test_case "forbids" `Quick test_forbids;
    Alcotest.test_case "business-impact omega" `Quick test_omega_spreads;
    Alcotest.test_case "capacity rows" `Quick test_capacity_binds;
    Alcotest.test_case "shared-risk rows" `Quick test_shared_risk_rows;
    Alcotest.test_case "shared-risk rows named by one side" `Quick
      test_one_sided_shared_risk;
    Alcotest.test_case "economies of scale priced exactly" `Quick test_eos_objective_matches_curve;
    Alcotest.test_case "pin/forbid conflict" `Quick test_pin_on_forbidden_rejected;
    Alcotest.test_case "LP file export" `Quick test_lp_file_export;
    Alcotest.test_case "LP text pinned" `Quick test_lp_text_pinned;
    Alcotest.test_case "solver input pinned" `Quick test_solver_input_pinned;
    Alcotest.test_case "no forced minor collection" `Quick test_no_forced_collection;
    Fixtures.property prop_matches_brute_force;
  ]
