(* The manual and greedy baselines (paper §VI-B/C). *)

open Etransform

let test_greedy_feasible () =
  let asis = Fixtures.asis () in
  let p = Greedy.plan asis in
  Alcotest.(check (list string)) "valid plan" [] (Placement.validate asis p)

let test_greedy_respects_capacity () =
  let asis = Fixtures.synthetic ~seed:7 ~groups:30 ~targets:4 () in
  let p = Greedy.plan asis in
  let loads = Placement.servers_per_dc asis p in
  Array.iteri
    (fun j load ->
      Alcotest.(check bool) "within capacity" true
        (load <= asis.Asis.targets.(j).Data_center.capacity))
    loads

let test_greedy_prefers_cheap () =
  (* With identical latency everywhere, greedy must land everything in the
     strictly cheapest data center when it fits. *)
  let flat = [| 10.0; 10.0 |] in
  let dc name space =
    Data_center.v ~name ~capacity:50
      ~space_segments:(Data_center.flat_space ~capacity:50 ~per_server:space)
      ~wan_per_mb:0.0 ~power_per_kwh:0.0 ~admin_monthly:0.0
      ~user_latency_ms:flat ()
  in
  let asis =
    Asis.v ~params:Fixtures.params ~name:"cheap"
      ~groups:[| Fixtures.group_2 (); Fixtures.group_3 () |]
      ~targets:[| dc "pricey" 500.0; dc "cheap" 50.0 |]
      ~user_locations:[| "a"; "b" |]
      ~current:[| dc "cur" 100.0 |]
      ~current_placement:[| 0; 0 |] ()
  in
  let p = Greedy.plan asis in
  Alcotest.(check (array int)) "all in cheap DC" [| 1; 1 |] p.Placement.primary

let test_greedy_order_largest_first () =
  (* A big group must grab the scarce cheap capacity before small ones. *)
  let flat = [| 10.0 |] in
  let dc name cap space =
    Data_center.v ~name ~capacity:cap
      ~space_segments:(Data_center.flat_space ~capacity:cap ~per_server:space)
      ~wan_per_mb:0.0 ~power_per_kwh:0.0 ~admin_monthly:0.0
      ~user_latency_ms:flat ()
  in
  let g name servers =
    App_group.v ~name ~servers ~data_mb_month:0.0 ~users:[| 1.0 |] ()
  in
  let asis =
    Asis.v ~params:Fixtures.params ~name:"order"
      ~groups:[| g "small" 2; g "big" 9 |]
      ~targets:[| dc "cheap" 10 10.0; dc "pricey" 20 100.0 |]
      ~user_locations:[| "a" |]
      ~current:[| dc "cur" 20 50.0 |]
      ~current_placement:[| 0; 0 |] ()
  in
  let p = Greedy.plan asis in
  Alcotest.(check int) "big group in cheap DC" 0 p.Placement.primary.(1);
  Alcotest.(check int) "small group overflows" 1 p.Placement.primary.(0)

let test_greedy_dr_distinct_sites () =
  let asis = Fixtures.asis () in
  let p = Greedy.plan_dr asis in
  Alcotest.(check (list string)) "valid DR plan" [] (Placement.validate asis p);
  match p.Placement.secondary with
  | None -> Alcotest.fail "expected secondary sites"
  | Some sec ->
      Array.iteri
        (fun i b ->
          Alcotest.(check bool) "secondary differs" true
            (b <> p.Placement.primary.(i)))
        sec

let test_greedy_dr_shares_pools () =
  (* Greedy-DR's marginal pricing must exploit single-failure sharing: the
     total pool is far below the total server count. *)
  let asis = Fixtures.synthetic ~seed:3 ~groups:30 ~targets:5 () in
  let p = Greedy.plan_dr asis in
  let pools = Placement.backup_servers asis p in
  let pool_total = Array.fold_left ( +. ) 0.0 pools in
  let servers = float_of_int (Asis.total_servers asis) in
  Alcotest.(check bool) "pool smaller than estate" true (pool_total < servers)

let test_manual_uses_few_sites () =
  let asis = Fixtures.synthetic ~seed:11 ~groups:40 ~targets:6 () in
  let p = Manual.plan ~num_dcs:2 asis in
  Alcotest.(check (list string)) "valid plan" [] (Placement.validate asis p);
  let used =
    Array.to_list p.Placement.primary |> List.sort_uniq compare |> List.length
  in
  (* Two chosen sites, plus possible overflow spill. *)
  Alcotest.(check bool) "about two sites" true (used <= 4)

let test_manual_grows_sites_for_capacity () =
  (* If two sites cannot hold the estate, manual adds more. *)
  let asis = Fixtures.synthetic ~seed:13 ~groups:40 ~targets:8 () in
  let p = Manual.plan ~num_dcs:1 asis in
  Alcotest.(check (list string)) "still feasible" [] (Placement.validate asis p)

let test_manual_dr_valid () =
  let asis = Fixtures.synthetic ~seed:19 ~groups:25 ~targets:6 () in
  let p = Manual.plan_dr ~num_dcs:2 asis in
  match p.Placement.secondary with
  | None -> Alcotest.fail "expected secondary"
  | Some sec ->
      Array.iteri
        (fun i b ->
          Alcotest.(check bool) "secondary differs from primary" true
            (b <> p.Placement.primary.(i)))
        sec

(* The paper's central qualitative claim for baselines: the manual approach
   ignores latency, so on latency-heavy estates it pays penalties that
   greedy reduces. *)
let test_manual_worse_on_latency () =
  let asis = Datasets.Synth.generate
      { Datasets.Synth.default with Datasets.Synth.seed = 77; n_groups = 40;
        n_targets = 8; n_current = 10; total_servers = 320 }
  in
  let manual = Evaluate.plan asis (Manual.plan asis) in
  let greedy = Evaluate.plan asis (Greedy.plan asis) in
  Alcotest.(check bool) "greedy pays less penalty" true
    (greedy.Evaluate.cost.Evaluate.latency_penalty
    <= manual.Evaluate.cost.Evaluate.latency_penalty)

let feasible_across_seeds name plan =
  Check.prop ~count:30 name (Fixtures.seed_arb 5000) (fun seed ->
      let asis = Fixtures.synthetic ~seed () in
      Fixtures.no_problems (Placement.validate asis (plan asis)))

let prop_greedy_feasible_across_seeds =
  feasible_across_seeds "greedy always returns feasible plans" Greedy.plan

let prop_manual_feasible_across_seeds =
  feasible_across_seeds "manual always returns feasible plans" Manual.plan

let suite =
  [
    Alcotest.test_case "greedy feasible" `Quick test_greedy_feasible;
    Alcotest.test_case "greedy capacity" `Quick test_greedy_respects_capacity;
    Alcotest.test_case "greedy prefers cheap" `Quick test_greedy_prefers_cheap;
    Alcotest.test_case "greedy largest first" `Quick test_greedy_order_largest_first;
    Alcotest.test_case "greedy DR distinct sites" `Quick test_greedy_dr_distinct_sites;
    Alcotest.test_case "greedy DR pool sharing" `Quick test_greedy_dr_shares_pools;
    Alcotest.test_case "manual uses few sites" `Quick test_manual_uses_few_sites;
    Alcotest.test_case "manual grows for capacity" `Quick test_manual_grows_sites_for_capacity;
    Alcotest.test_case "manual DR valid" `Quick test_manual_dr_valid;
    Alcotest.test_case "manual ignores latency" `Quick test_manual_worse_on_latency;
    Fixtures.property prop_greedy_feasible_across_seeds;
    Fixtures.property prop_manual_feasible_across_seeds;
  ]
