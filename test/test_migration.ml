(* Migration wave scheduling and dual-based insights. *)

open Etransform

let setup () =
  let asis = Fixtures.synthetic ~seed:51 ~groups:20 ~targets:4 () in
  let plan = (Solver.consolidate asis).Solver.placement in
  (asis, plan)

let test_schedule_validates () =
  let asis, plan = setup () in
  let s = Migration.plan ~servers_per_wave:30 asis plan in
  Alcotest.(check (list string)) "well-formed" []
    (Migration.validate ~servers_per_wave:30 asis plan s)

let test_every_group_moves_once () =
  let asis, plan = setup () in
  let s = Migration.plan asis plan in
  let moved =
    List.concat_map (fun w -> List.map (fun mv -> mv.Migration.group) w.Migration.moves)
      s.Migration.waves
  in
  Alcotest.(check int) "all groups" (Asis.num_groups asis) (List.length moved);
  Alcotest.(check int) "no duplicates" (Asis.num_groups asis)
    (List.length (List.sort_uniq compare moved))

let test_wave_budget () =
  let asis, plan = setup () in
  let budget = 25 in
  let s = Migration.plan ~servers_per_wave:budget asis plan in
  List.iter
    (fun w ->
      if List.length w.Migration.moves > 1 then
        Alcotest.(check bool) "budget respected" true
          (w.Migration.servers_moved <= budget))
    s.Migration.waves

let test_timeline_starts_and_ends_right () =
  let asis, plan = setup () in
  let s = Migration.plan asis plan in
  let as_is = Evaluate.total (Evaluate.asis_state asis).Evaluate.cost in
  let to_be = Evaluate.total (Evaluate.plan asis plan).Evaluate.cost in
  let t = s.Migration.cost_timeline in
  Alcotest.(check (float 1.0)) "starts at as-is" as_is t.(0);
  Alcotest.(check (float 1.0)) "ends at to-be" to_be t.(Array.length t - 1)

let test_timeline_eventually_saves () =
  let asis, plan = setup () in
  let s = Migration.plan asis plan in
  let t = s.Migration.cost_timeline in
  Alcotest.(check bool) "final below initial" true (t.(Array.length t - 1) < t.(0))

let test_oversized_group_own_wave () =
  let asis, plan = setup () in
  (* Budget of one server: every group gets its own wave. *)
  let s = Migration.plan ~servers_per_wave:1 asis plan in
  Alcotest.(check int) "one wave per group" (Asis.num_groups asis)
    (List.length s.Migration.waves);
  Alcotest.(check (list string)) "still valid" []
    (Migration.validate ~servers_per_wave:1 asis plan s)

(* Shadow price: in a knapsack-style LP the capacity row's dual is the
   marginal value density. *)
let test_shadow_price_knapsack () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~hi:10.0 "x" and y = Lp.Model.add_var m ~hi:10.0 "y" in
  (* max 3x + y s.t. x + y <= 4: optimum x=4; one more unit of rhs is
     worth 3. *)
  Lp.Model.add_le m "cap" Lp.Model.Linexpr.(add (var x) (var y)) 4.0;
  Lp.Model.set_objective m ~minimize:false
    Lp.Model.Linexpr.(add (term 3.0 x) (var y));
  let r = Lp.Simplex.solve (Lp.Simplex.of_model m) in
  (* Internal duals are in min convention: -3 for this max problem. *)
  Alcotest.(check (float 1e-6)) "marginal value" 3.0
    (Float.abs r.Lp.Simplex.duals.(0))

let test_capacity_shadow_prices () =
  let asis = Fixtures.asis () in
  let prices = Insights.capacity_shadow_prices asis in
  Alcotest.(check int) "one per target" 3 (Array.length prices);
  (* Minimization duals on <= rows are non-positive. *)
  Array.iter
    (fun (_, y) -> Alcotest.(check bool) "non-positive" true (y <= 1e-9))
    prices

let test_most_constrained_ordering () =
  let asis = Fixtures.synthetic ~seed:61 ~groups:30 ~targets:4 () in
  let ranked = Insights.most_constrained asis in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-12 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by value" true (monotone ranked)

let suite =
  [
    Alcotest.test_case "schedule validates" `Quick test_schedule_validates;
    Alcotest.test_case "each group moves once" `Quick test_every_group_moves_once;
    Alcotest.test_case "wave budget" `Quick test_wave_budget;
    Alcotest.test_case "timeline endpoints" `Quick test_timeline_starts_and_ends_right;
    Alcotest.test_case "migration saves money" `Quick test_timeline_eventually_saves;
    Alcotest.test_case "tiny budget one wave per group" `Quick test_oversized_group_own_wave;
    Alcotest.test_case "knapsack shadow price" `Quick test_shadow_price_knapsack;
    Alcotest.test_case "capacity shadow prices" `Quick test_capacity_shadow_prices;
    Alcotest.test_case "most constrained ordering" `Quick test_most_constrained_ordering;
  ]
