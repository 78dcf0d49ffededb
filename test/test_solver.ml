(* The end-to-end consolidation engine: optimality on small instances,
   robustness under budgets, local search, and the LP-rounding fallback. *)

open Etransform

let test_beats_baselines () =
  let asis = Fixtures.synthetic ~seed:1 ~groups:30 ~targets:5 () in
  let o = Solver.consolidate asis in
  let e = Evaluate.total o.Solver.summary.Evaluate.cost in
  let g = Evaluate.total (Evaluate.plan asis (Greedy.plan asis)).Evaluate.cost in
  let m = Evaluate.total (Evaluate.plan asis (Manual.plan asis)).Evaluate.cost in
  Alcotest.(check bool) "beats or ties greedy" true (e <= g +. 1e-6);
  Alcotest.(check bool) "beats or ties manual" true (e <= m +. 1e-6)

let test_feasible_outcome () =
  let asis = Fixtures.synthetic ~seed:2 () in
  let o = Solver.consolidate asis in
  Alcotest.(check (list string)) "placement feasible" []
    (Placement.validate asis o.Solver.placement)

let test_rejects_invalid_asis () =
  let asis = Fixtures.asis () in
  let broken = { asis with Asis.current_placement = [| 0 |] } in
  Alcotest.(check bool) "raises on invalid input" true
    (try
       ignore (Solver.consolidate broken);
       false
     with Invalid_argument _ -> true)

let test_budget_still_feasible () =
  let asis = Fixtures.synthetic ~seed:3 ~groups:40 ~targets:6 () in
  let milp =
    { Solver.default_milp_options with Lp.Milp.node_limit = 1; time_limit = 5.0 }
  in
  let o = Solver.consolidate ~milp asis in
  Alcotest.(check (list string)) "feasible under tiny budget" []
    (Placement.validate asis o.Solver.placement)

let test_local_search_improves_or_ties () =
  let asis = Fixtures.synthetic ~seed:4 ~groups:30 ~targets:5 () in
  let without = Solver.consolidate ~local_search:false asis in
  let with_ls = Solver.consolidate ~local_search:true asis in
  Alcotest.(check bool) "local search never hurts" true
    (Evaluate.total with_ls.Solver.summary.Evaluate.cost
    <= Evaluate.total without.Solver.summary.Evaluate.cost +. 1e-6)

let test_local_search_fixes_bad_plan () =
  let asis = Fixtures.asis () in
  (* Start from a deliberately bad plan: latency-sensitive groups on the
     wrong coasts. *)
  let bad = Placement.non_dr [| 1; 0; 2; 2 |] in
  let improved, moves = Local_search.improve asis bad in
  Alcotest.(check bool) "made moves" true (moves > 0);
  let before = Evaluate.total (Evaluate.plan asis bad).Evaluate.cost in
  let after = Evaluate.total (Evaluate.plan asis improved).Evaluate.cost in
  Alcotest.(check bool) "cost decreased" true (after < before)

let test_local_search_respects_constraints () =
  let asis = Fixtures.asis () in
  let g0 = { (Fixtures.group_0 ()) with App_group.allowed_dcs = Some [| 1 |] } in
  let groups = Array.copy asis.Asis.groups in
  groups.(0) <- g0;
  let asis = { asis with Asis.groups = groups } in
  let start = Placement.non_dr [| 1; 0; 2; 2 |] in
  let improved, _ = Local_search.improve asis start in
  Alcotest.(check int) "pinned group stays" 1 improved.Placement.primary.(0)

(* Edge cases of the local search's incremental screen.  Sites below
   differ only where a test says so: power 10 and labor 10 per server
   everywhere, so a site's per-server cost is its space price + 20. *)
let site ?(lat = 5.0) name cap space =
  Fixtures.dc name cap space 1e-3 1.0 1300.0 [| lat; lat |]

let ls_estate ?(penalty = Latency_penalty.none) targets servers =
  let groups =
    Array.mapi
      (fun i s ->
        App_group.v ~latency:penalty ~name:(Printf.sprintf "g%d" i)
          ~servers:s ~data_mb_month:100.0 ~users:[| 5.0; 5.0 |] ())
      servers
  in
  Asis.v ~params:Fixtures.params ~name:"screen" ~groups ~targets
    ~user_locations:[| "east"; "west" |]
    ~current:[| site "legacy" 100 200.0 |]
    ~current_placement:(Array.make (Array.length servers) 0)
    ()

let test_local_search_fills_to_capacity () =
  (* Both groups fit the cheap site only together, at exactly its
     capacity. *)
  let asis = ls_estate [| site "cheap" 5 50.0; site "dear" 10 100.0 |] [| 2; 3 |] in
  let improved, moves = Local_search.improve asis (Placement.non_dr [| 1; 1 |]) in
  Alcotest.(check int) "both moved" 2 moves;
  Alcotest.(check (array int)) "cheap site full" [| 0; 0 |]
    improved.Placement.primary

let test_local_search_omega_tight () =
  (* omega 0.5 over four groups allows two per site.  The start breaks
     that on the dear site; one move onto the cheap site repairs it, and a
     second would break it there. *)
  let asis =
    ls_estate [| site "cheap" 100 50.0; site "dear" 100 100.0 |] [| 1; 1; 1; 1 |]
  in
  let improved, moves =
    Local_search.improve ~omega:0.5 asis (Placement.non_dr [| 0; 1; 1; 1 |])
  in
  Alcotest.(check int) "one move" 1 moves;
  Alcotest.(check (array int)) "two per site" [| 0; 0; 1; 1 |]
    improved.Placement.primary

let test_local_search_swap_back () =
  (* The group's users are near site 0, which holds its backup.  Moving
     the primary there sends the secondary back to the old primary rather
     than leaving primary and secondary on one site. *)
  let asis =
    ls_estate
      ~penalty:(Latency_penalty.step ~threshold_ms:10.0 ~penalty_per_user:100.0)
      [| site "near" 10 100.0; site ~lat:20.0 "far" 10 100.0;
         site ~lat:20.0 "far2" 10 100.0 |]
      [| 4 |]
  in
  let start = Placement.with_dr ~primary:[| 1 |] ~secondary:[| 0 |] () in
  let improved, moves = Local_search.improve asis start in
  Alcotest.(check int) "one move" 1 moves;
  Alcotest.(check (array int)) "primary near" [| 0 |] improved.Placement.primary;
  Alcotest.(check (option (array int))) "secondary swapped back"
    (Some [| 1 |]) improved.Placement.secondary;
  Alcotest.(check (list string)) "valid" [] (Placement.validate asis improved)

let test_local_search_pool_max_moves () =
  (* Shared pools: site 3's pool is 2, set by primary site 1.  Moving
     group 0's backup from the dear site 2 to site 3 makes primary site 0
     set that pool instead (4 servers) and empties site 2.  Sites 0 and 1
     are full of primaries, and the backup sites are too far for them. *)
  let penalty = Latency_penalty.step ~threshold_ms:10.0 ~penalty_per_user:1000.0 in
  let asis =
    ls_estate ~penalty
      [| site "p0" 4 100.0; site "p1" 2 100.0;
         site ~lat:50.0 "dear" 10 150.0; site ~lat:50.0 "cheap" 10 50.0 |]
      [| 4; 2 |]
  in
  let start =
    Placement.with_dr ~primary:[| 0; 1 |] ~secondary:[| 2; 3 |] ()
  in
  let improved, moves = Local_search.improve asis start in
  Alcotest.(check int) "one move" 1 moves;
  Alcotest.(check (option (array int))) "backups share site 3"
    (Some [| 3; 3 |]) improved.Placement.secondary;
  Alcotest.(check (array (float 0.0))) "pool set by site 0"
    [| 0.0; 0.0; 0.0; 4.0 |]
    (Placement.backup_servers asis improved)

let test_local_search_zero_delta () =
  (* Identical sites: every reassignment and swap costs exactly the same,
     and a move that saves nothing is not a move. *)
  let asis =
    ls_estate [| site "a" 10 100.0; site "b" 10 100.0 |] [| 3; 3; 2 |]
  in
  let start = Placement.non_dr [| 0; 1; 1 |] in
  let improved, moves = Local_search.improve asis start in
  Alcotest.(check int) "no moves" 0 moves;
  Alcotest.(check (array int)) "unchanged" start.Placement.primary
    improved.Placement.primary

let test_solver_optimal_small () =
  (* On the fixture the engine must land on the global optimum of the exact
     (flat-pricing) cost: compare against exhaustive search over plans. *)
  let asis = Fixtures.asis () in
  let o = Solver.consolidate asis in
  let best = ref infinity in
  let assign = Array.make 4 0 in
  let rec enum i =
    if i = 4 then begin
      let p = Placement.non_dr (Array.copy assign) in
      if Placement.validate asis p = [] then begin
        let c = Evaluate.total (Evaluate.plan asis p).Evaluate.cost in
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
  Alcotest.(check (float 1e-6)) "global optimum" !best
    (Evaluate.total o.Solver.summary.Evaluate.cost)

let test_gap_reported () =
  let asis = Fixtures.synthetic ~seed:5 () in
  let o = Solver.consolidate asis in
  Alcotest.(check bool) "gap in [0,1]" true
    (o.Solver.milp_gap >= 0.0 && o.Solver.milp_gap <= 1.0)

(* On this estate the polished greedy plan is cheaper than the engine's
   (whose own polish makes 16 moves), so [consolidate] serves it, and
   the local moves it reports are the ones that polished it. *)
let test_greedy_insurance_moves () =
  let asis = Fixtures.synthetic ~seed:3 ~groups:30 ~targets:6 () in
  let o = Solver.consolidate asis in
  let g, moves =
    Local_search.improve ~swaps:false ~max_rounds:2 asis (Greedy.plan asis)
  in
  Alcotest.(check bool) "greedy plan served" true (o.Solver.placement = g);
  Alcotest.(check int) "its local moves" moves o.Solver.local_moves

(* Every candidate path of [consolidate], each reached by a small estate
   at a node budget of 0 (the time limit never binds).  Each case first
   checks, on the model the engine solves, the condition that sends the
   engine down its path, so the pin cannot silently stop covering it;
   then it pins the outcome's digest. *)
let test_candidate_branches_pinned () =
  let milp = { Solver.default_milp_options with Lp.Milp.node_limit = 0 } in
  let case name ?(builder = Lp_builder.default_options) asis ~pre digest =
    let built = Lp_builder.build ~options:builder asis in
    let r = Lp.Milp.solve ~options:milp built.Lp_builder.model in
    Alcotest.(check bool) (name ^ ": reached") true (pre r);
    let o = Solver.consolidate ~builder ~milp asis in
    Alcotest.(check string) (name ^ ": pinned") digest (Fixtures.outcome_digest o);
    (built, r, o)
  in
  let omega w = { Lp_builder.default_options with Lp_builder.omega = Some w } in
  let no_incumbent r = Array.length r.Lp.Milp.x = 0 in
  (* omega 0.34 allows one of the four groups per site: the relaxation
     is feasible, the model is not, so the tree ends without an
     incumbent and the engine rounds the relaxation. *)
  ignore
    (case "lp_round" ~builder:(omega 0.34) (Fixtures.asis ())
       ~pre:(fun r -> no_incumbent r && Array.length r.Lp.Milp.relax_x > 0)
       "63eae34bf61ebfe90ed47ad75f3e697a");
  (* omega 0.3 leaves room for 3.6 of the four groups: even the
     relaxation is infeasible, so there is nothing to round and the
     engine falls back to the greedy plan. *)
  ignore
    (case "greedy fallback" ~builder:(omega 0.3) (Fixtures.asis ())
       ~pre:(fun r -> no_incumbent r && Array.length r.Lp.Milp.relax_x = 0)
       "304247e5d07adad89e7b3e9712e6860e");
  (* A pumped incumbent 5% or more above the bound: the rounded
     relaxation is polished beside it. *)
  ignore
    (case "rounded peer"
       ~builder:{ Lp_builder.default_options with Lp_builder.economies_of_scale = true }
       (Fixtures.synthetic ~seed:1 ~groups:20 ~targets:4 ())
       ~pre:(fun r -> (not (no_incumbent r)) && r.Lp.Milp.gap > 0.05)
       "e7bb40a1f72cf88e9b58a599d9268c41");
  (* No side constraint: the polished greedy plan is a candidate, and
     here it beats the polished MILP plan. *)
  let asis = Fixtures.synthetic ~seed:0 ~groups:16 ~targets:4 () in
  let built, r, o =
    case "greedy insurance" asis ~pre:(fun r -> not (no_incumbent r))
       "ef37da79a04b1de35da19c4226928f48"
  in
  let g, _ =
    Local_search.improve ~swaps:false ~max_rounds:2 asis (Greedy.plan asis)
  in
  let cost p = Evaluate.total (Evaluate.plan asis p).Evaluate.cost in
  let engine, _ = Local_search.improve asis (Lp_builder.decode built r.Lp.Milp.x) in
  Alcotest.(check bool) "greedy insurance: wins" true
    (cost g < cost engine && o.Solver.placement = g)

(* A latency budget binds on the served plan, not only on the model:
   the polish must not move a group off budget, and no unconstrained
   candidate may replace the MILP's plan. *)
let test_latency_budget_served () =
  let asis = Datasets.Enterprise1.asis ~scale:0.3 () in
  let builder =
    { Lp_builder.default_options with Lp_builder.max_latency_ms = Some 16.2 }
  in
  let o = Solver.consolidate ~builder asis in
  Alcotest.(check (list int)) "no group off budget" []
    (Fixtures.off_budget asis ~budget_ms:16.2 o.Solver.placement)

let prop_solver_never_worse_than_greedy =
  Check.prop ~count:12 "engine never loses to greedy" (Fixtures.seed_arb 3000)
    (fun seed ->
      let asis = Fixtures.synthetic ~seed ~groups:20 ~targets:4 () in
      let o = Solver.consolidate asis in
      let e = Evaluate.total o.Solver.summary.Evaluate.cost in
      let g = Evaluate.total (Evaluate.plan asis (Greedy.plan asis)).Evaluate.cost in
      if e <= g +. 1e-6 then Ok ()
      else Fixtures.errorf "engine %g > greedy %g" e g)

let suite =
  [
    Alcotest.test_case "beats baselines" `Quick test_beats_baselines;
    Alcotest.test_case "feasible outcome" `Quick test_feasible_outcome;
    Alcotest.test_case "rejects invalid as-is" `Quick test_rejects_invalid_asis;
    Alcotest.test_case "tiny budgets stay feasible" `Quick test_budget_still_feasible;
    Alcotest.test_case "local search monotone" `Quick test_local_search_improves_or_ties;
    Alcotest.test_case "local search repairs" `Quick test_local_search_fixes_bad_plan;
    Alcotest.test_case "local search respects constraints" `Quick test_local_search_respects_constraints;
    Alcotest.test_case "local search fills to capacity" `Quick test_local_search_fills_to_capacity;
    Alcotest.test_case "local search omega tight" `Quick test_local_search_omega_tight;
    Alcotest.test_case "local search swap-back" `Quick test_local_search_swap_back;
    Alcotest.test_case "local search pool max moves" `Quick test_local_search_pool_max_moves;
    Alcotest.test_case "local search zero delta" `Quick test_local_search_zero_delta;
    Alcotest.test_case "optimal on fixture" `Quick test_solver_optimal_small;
    Alcotest.test_case "gap reported" `Quick test_gap_reported;
    Alcotest.test_case "greedy insurance reports its moves" `Quick
      test_greedy_insurance_moves;
    Alcotest.test_case "candidate branches pinned" `Quick
      test_candidate_branches_pinned;
    Alcotest.test_case "latency budget served" `Quick test_latency_budget_served;
    Fixtures.property prop_solver_never_worse_than_greedy;
  ]
