(* Domain types: latency penalties, app groups, data centers, as-is state,
   placements. *)

open Etransform

let test_penalty_none () =
  Alcotest.(check (float 1e-9)) "no penalty" 0.0
    (Latency_penalty.per_user Latency_penalty.none ~avg_latency_ms:1000.0);
  Alcotest.(check bool) "not sensitive" false
    (Latency_penalty.is_sensitive Latency_penalty.none)

let test_penalty_step () =
  let p = Latency_penalty.step ~threshold_ms:10.0 ~penalty_per_user:100.0 in
  Alcotest.(check (float 1e-9)) "below" 0.0 (Latency_penalty.per_user p ~avg_latency_ms:9.9);
  Alcotest.(check (float 1e-9)) "at threshold" 0.0 (Latency_penalty.per_user p ~avg_latency_ms:10.0);
  Alcotest.(check (float 1e-9)) "above" 100.0 (Latency_penalty.per_user p ~avg_latency_ms:10.1);
  Alcotest.(check (float 1e-9)) "total" 5000.0
    (Latency_penalty.total p ~avg_latency_ms:50.0 ~users:50.0);
  Alcotest.(check bool) "violated" true (Latency_penalty.violated p ~avg_latency_ms:11.0);
  Alcotest.(check (option (float 1e-9))) "first threshold" (Some 10.0)
    (Latency_penalty.first_threshold p)

let test_penalty_bands () =
  let p = Latency_penalty.bands [ (40.0, 30.0); (10.0, 10.0); (20.0, 20.0) ] in
  Alcotest.(check (float 1e-9)) "band 1" 10.0 (Latency_penalty.per_user p ~avg_latency_ms:15.0);
  Alcotest.(check (float 1e-9)) "band 2" 20.0 (Latency_penalty.per_user p ~avg_latency_ms:25.0);
  Alcotest.(check (float 1e-9)) "band 3" 30.0 (Latency_penalty.per_user p ~avg_latency_ms:99.0);
  Alcotest.(check (float 1e-9)) "below all" 0.0 (Latency_penalty.per_user p ~avg_latency_ms:5.0)

let test_penalty_bands_invalid () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Latency_penalty.bands: negative threshold or penalty")
    (fun () -> ignore (Latency_penalty.bands [ (-1.0, 5.0) ]))

let test_app_group_invariants () =
  Alcotest.check_raises "zero servers"
    (Invalid_argument "App_group.v: servers must be positive") (fun () ->
      ignore
        (App_group.v ~name:"bad" ~servers:0 ~data_mb_month:1.0 ~users:[| 1.0 |] ()));
  Alcotest.check_raises "negative users"
    (Invalid_argument "App_group.v: negative user count") (fun () ->
      ignore
        (App_group.v ~name:"bad" ~servers:1 ~data_mb_month:1.0 ~users:[| -1.0 |] ()))

let test_app_group_allowed () =
  let g =
    App_group.v ~allowed_dcs:[| 0; 2 |] ~name:"g" ~servers:1 ~data_mb_month:0.0
      ~users:[| 1.0 |] ()
  in
  Alcotest.(check bool) "allowed 0" true (App_group.allowed g 0);
  Alcotest.(check bool) "blocked 1" false (App_group.allowed g 1);
  Alcotest.(check bool) "allowed 2" true (App_group.allowed g 2);
  let open_group = Fixtures.group_0 () in
  Alcotest.(check bool) "unrestricted" true (App_group.allowed open_group 7)

let test_data_center_invariants () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Data_center.v: capacity must be positive") (fun () ->
      ignore
        (Data_center.v ~name:"bad" ~capacity:0
           ~space_segments:(Data_center.flat_space ~capacity:1 ~per_server:1.0)
           ~wan_per_mb:0.0 ~power_per_kwh:0.0 ~admin_monthly:0.0
           ~user_latency_ms:[| 1.0 |] ()));
  Alcotest.check_raises "segments short"
    (Invalid_argument "Data_center.v: space segments do not cover capacity")
    (fun () ->
      ignore
        (Data_center.v ~name:"bad" ~capacity:100
           ~space_segments:(Data_center.flat_space ~capacity:10 ~per_server:1.0)
           ~wan_per_mb:0.0 ~power_per_kwh:0.0 ~admin_monthly:0.0
           ~user_latency_ms:[| 1.0 |] ()))

let test_space_cost_curve () =
  let dc = Fixtures.target_a () in
  Alcotest.(check (float 1e-9)) "flat pricing" 500.0 (Data_center.space_cost dc 5.0);
  Alcotest.(check (float 1e-9)) "first tier" 100.0 (Data_center.first_tier_space dc)

let test_asis_validate_ok () =
  Alcotest.(check (list string)) "fixture validates" [] (Asis.validate (Fixtures.asis ()))

let test_asis_validate_catches () =
  let asis = Fixtures.asis () in
  let broken =
    { asis with Asis.current_placement = [| 0; 0; 9; 1 |] }
  in
  Alcotest.(check bool) "unknown current DC flagged" true
    (Asis.validate broken <> []);
  let too_small =
    { asis with
      Asis.targets = [| Fixtures.target_a () |] }
  in
  Alcotest.(check bool) "capacity shortfall flagged" true
    (Asis.validate too_small <> [])

let test_asis_counters () =
  let asis = Fixtures.asis () in
  Alcotest.(check int) "groups" 4 (Asis.num_groups asis);
  Alcotest.(check int) "targets" 3 (Asis.num_targets asis);
  Alcotest.(check int) "servers" 14 (Asis.total_servers asis);
  Alcotest.(check int) "capacity" 40 (Asis.total_target_capacity asis)

let test_placement_servers_per_dc () =
  let asis = Fixtures.asis () in
  let p = Placement.non_dr [| 0; 1; 2; 0 |] in
  Alcotest.(check (array int)) "loads" [| 6; 3; 5 |] (Placement.servers_per_dc asis p)

let test_backup_sharing () =
  let asis = Fixtures.asis () in
  (* Primaries split across A and B; all backups pool at C.  Shared pool
     covers the worst failing site: max(4+3, 5+2) = 7. *)
  let p = Placement.with_dr ~primary:[| 0; 0; 1; 1 |] ~secondary:[| 2; 2; 2; 2 |] () in
  Alcotest.(check (array (float 1e-9))) "shared" [| 0.0; 0.0; 7.0 |]
    (Placement.backup_servers asis p)

let test_placement_validate () =
  let asis = Fixtures.asis () in
  Alcotest.(check (list string)) "feasible plan" []
    (Placement.validate asis (Placement.non_dr [| 0; 1; 2; 2 |]));
  (* Capacity 10 at A cannot hold groups 0 and 2 plus 3 (4+5+2=11). *)
  Alcotest.(check bool) "over capacity" true
    (Placement.validate asis (Placement.non_dr [| 0; 1; 0; 0 |]) <> []);
  Alcotest.(check bool) "unknown target" true
    (Placement.validate asis (Placement.non_dr [| 0; 1; 2; 9 |]) <> []);
  let same =
    Placement.with_dr ~primary:[| 0; 1; 2; 2 |] ~secondary:[| 0; 2; 0; 0 |] ()
  in
  Alcotest.(check bool) "secondary equals primary" true
    (Placement.validate asis same <> [])

let test_shared_risk () =
  let asis = Fixtures.asis () in
  let g0 = { (Fixtures.group_0 ()) with App_group.colocate_avoid = [ 1 ] } in
  let asis = { asis with Asis.groups = [| g0; Fixtures.group_1 (); Fixtures.group_2 (); Fixtures.group_3 () |] } in
  Alcotest.(check bool) "violating plan flagged" true
    (Placement.validate asis (Placement.non_dr [| 0; 0; 1; 2 |]) <> []);
  Alcotest.(check (list string)) "separated plan fine" []
    (Placement.validate asis (Placement.non_dr [| 0; 1; 2; 2 |]))

let test_dcs_used () =
  let asis = Fixtures.asis () in
  Alcotest.(check int) "primaries only" 2
    (Placement.dcs_used asis (Placement.non_dr [| 0; 0; 1; 1 |]));
  Alcotest.(check int) "backup site counts" 3
    (Placement.dcs_used asis
       (Placement.with_dr ~primary:[| 0; 0; 1; 1 |] ~secondary:[| 2; 2; 2; 2 |] ()))

let suite =
  [
    Alcotest.test_case "penalty: none" `Quick test_penalty_none;
    Alcotest.test_case "penalty: single step" `Quick test_penalty_step;
    Alcotest.test_case "penalty: bands" `Quick test_penalty_bands;
    Alcotest.test_case "penalty: invalid bands" `Quick test_penalty_bands_invalid;
    Alcotest.test_case "app group invariants" `Quick test_app_group_invariants;
    Alcotest.test_case "app group allowed DCs" `Quick test_app_group_allowed;
    Alcotest.test_case "data center invariants" `Quick test_data_center_invariants;
    Alcotest.test_case "space cost curve" `Quick test_space_cost_curve;
    Alcotest.test_case "as-is validates" `Quick test_asis_validate_ok;
    Alcotest.test_case "as-is validation catches faults" `Quick test_asis_validate_catches;
    Alcotest.test_case "as-is counters" `Quick test_asis_counters;
    Alcotest.test_case "servers per DC" `Quick test_placement_servers_per_dc;
    Alcotest.test_case "backup pool sharing" `Quick test_backup_sharing;
    Alcotest.test_case "placement validation" `Quick test_placement_validate;
    Alcotest.test_case "shared-risk separation" `Quick test_shared_risk;
    Alcotest.test_case "DCs used" `Quick test_dcs_used;
  ]
