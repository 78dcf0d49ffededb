(* Dataset substrate: determinism, distribution invariants, and the Table II
   shape of the three case-study estates. *)

let test_prng_deterministic () =
  let a = Datasets.Prng.create 7 and b = Datasets.Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Datasets.Prng.next_int64 a)
      (Datasets.Prng.next_int64 b)
  done

let test_prng_split_independent () =
  let parent = Datasets.Prng.create 7 in
  let child = Datasets.Prng.split parent in
  let next_parent = Datasets.Prng.next_int64 parent in
  (* Re-create and re-split: drawing from the child must not change what
     the parent produces next. *)
  let parent2 = Datasets.Prng.create 7 in
  let child2 = Datasets.Prng.split parent2 in
  for _ = 1 to 50 do
    ignore (Datasets.Prng.next_int64 child2)
  done;
  Alcotest.(check int64) "parent unaffected by child draws" next_parent
    (Datasets.Prng.next_int64 parent2);
  ignore child

let test_prng_float_range () =
  let rng = Datasets.Prng.create 11 in
  for _ = 1 to 1000 do
    let f = Datasets.Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_int_bounds () =
  let rng = Datasets.Prng.create 13 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let k = Datasets.Prng.int rng 5 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 5);
    seen.(k) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_zipf_weights () =
  let w = Datasets.Distributions.zipf_weights ~n:10 ~s:1.0 in
  Alcotest.(check (float 1e-9)) "normalized" 1.0 (Array.fold_left ( +. ) 0.0 w);
  for k = 1 to 9 do
    Alcotest.(check bool) "decreasing" true (w.(k) <= w.(k - 1))
  done

let test_partition_integer () =
  let rng = Datasets.Prng.create 5 in
  let w = Datasets.Distributions.zipf_weights ~n:20 ~s:1.1 in
  let parts = Datasets.Distributions.partition_integer rng ~total:1070 ~weights:w ~min_each:1 in
  Alcotest.(check int) "sums to total" 1070 (Array.fold_left ( + ) 0 parts);
  Array.iter (fun p -> Alcotest.(check bool) "min respected" true (p >= 1)) parts

let test_partition_too_small () =
  let rng = Datasets.Prng.create 5 in
  Alcotest.check_raises "total too small"
    (Invalid_argument "Distributions.partition_integer: total too small")
    (fun () ->
      ignore
        (Datasets.Distributions.partition_integer rng ~total:3
           ~weights:[| 1.0; 1.0; 1.0; 1.0 |] ~min_each:1))

let test_categorical () =
  let rng = Datasets.Prng.create 17 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let k = Datasets.Distributions.categorical rng [| 1.0; 2.0; 7.0 |] in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "heavy class dominates" true (counts.(2) > counts.(0));
  Alcotest.(check bool) "mid class in between" true (counts.(1) > counts.(0))

let test_reference_costs_sane () =
  let check_market (m : Datasets.Reference_costs.market) =
    Alcotest.(check bool) (m.Datasets.Reference_costs.market ^ " power") true
      (m.Datasets.Reference_costs.power_per_kwh > 0.03
      && m.Datasets.Reference_costs.power_per_kwh < 0.5);
    Alcotest.(check bool) (m.Datasets.Reference_costs.market ^ " space") true
      (m.Datasets.Reference_costs.space_per_server > 50.0
      && m.Datasets.Reference_costs.space_per_server < 1000.0)
  in
  Array.iter check_market Datasets.Reference_costs.us_markets;
  Array.iter check_market Datasets.Reference_costs.world_markets;
  Alcotest.(check bool) "find works" true
    (Datasets.Reference_costs.find "Texas" <> None)

let test_volume_segments () =
  let segs = Datasets.Reference_costs.volume_segments ~capacity:300 ~per_server:100.0 in
  Alcotest.(check int) "three tiers" 3 (List.length segs);
  Alcotest.(check bool) "covers capacity" true
    (Lp.Piecewise.total_width segs >= 300.0);
  (* Tiers must be non-increasing in unit cost (volume discount). *)
  let costs = List.map (fun s -> s.Lp.Piecewise.unit_cost) segs in
  Alcotest.(check bool) "discounted" true (List.sort compare costs = List.rev costs
                                           || costs = List.sort (fun a b -> compare b a) costs)

let test_synth_deterministic () =
  let a = Datasets.Synth.generate Datasets.Synth.default in
  let b = Datasets.Synth.generate Datasets.Synth.default in
  Alcotest.(check int) "groups" (Etransform.Asis.num_groups a) (Etransform.Asis.num_groups b);
  Alcotest.(check int) "servers" (Etransform.Asis.total_servers a)
    (Etransform.Asis.total_servers b);
  Array.iteri
    (fun i (g : Etransform.App_group.t) ->
      let g' = b.Etransform.Asis.groups.(i) in
      Alcotest.(check string) "name" g.Etransform.App_group.name g'.Etransform.App_group.name;
      Alcotest.(check int) "size" g.Etransform.App_group.servers g'.Etransform.App_group.servers;
      Alcotest.(check (float 1e-9)) "traffic" g.Etransform.App_group.data_mb_month
        g'.Etransform.App_group.data_mb_month)
    a.Etransform.Asis.groups

let check_table2 name asis ~groups ~servers ~current ~targets =
  (* The synthesizer may split oversized Zipf-head groups, so group counts
     can exceed the nominal figure slightly. *)
  Alcotest.(check bool)
    (name ^ " groups") true
    (Etransform.Asis.num_groups asis >= groups
    && float_of_int (Etransform.Asis.num_groups asis)
       <= 1.06 *. float_of_int groups);
  Alcotest.(check int) (name ^ " servers") servers (Etransform.Asis.total_servers asis);
  Alcotest.(check int) (name ^ " current") current
    (Array.length asis.Etransform.Asis.current);
  Alcotest.(check int) (name ^ " targets") targets (Etransform.Asis.num_targets asis);
  Alcotest.(check (list string)) (name ^ " validates") [] (Etransform.Asis.validate asis)

let test_enterprise1_shape () =
  check_table2 "enterprise1" (Datasets.Enterprise1.asis ()) ~groups:190
    ~servers:1070 ~current:67 ~targets:10

let test_florida_shape () =
  check_table2 "florida" (Datasets.Florida.asis ()) ~groups:190 ~servers:3907
    ~current:43 ~targets:10

let test_federal_shape () =
  check_table2 "federal" (Datasets.Federal.asis ()) ~groups:1900 ~servers:42800
    ~current:2094 ~targets:100

let test_scaling () =
  let asis = Datasets.Federal.asis ~scale:0.1 () in
  Alcotest.(check bool) "groups scaled" true
    (Etransform.Asis.num_groups asis >= 190 && Etransform.Asis.num_groups asis < 240);
  Alcotest.(check int) "targets scaled" 10 (Etransform.Asis.num_targets asis);
  Alcotest.(check (list string)) "validates" [] (Etransform.Asis.validate asis)

let test_groups_fit_targets () =
  let asis = Datasets.Federal.asis ~scale:0.2 () in
  Alcotest.(check (list int)) "no oversized groups" []
    (Etransform.Split.oversized asis)

let prop_synth_valid_across_seeds =
  Check.prop ~count:25 "synth output validates for any seed"
    (Fixtures.seed_arb 10_000)
    (fun seed ->
      let cfg = { Datasets.Synth.default with Datasets.Synth.seed } in
      let asis = Datasets.Synth.generate cfg in
      Fixtures.no_problems (Etransform.Asis.validate asis))

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split independence" `Quick test_prng_split_independent;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
    Alcotest.test_case "integer partition" `Quick test_partition_integer;
    Alcotest.test_case "partition too small" `Quick test_partition_too_small;
    Alcotest.test_case "categorical sampling" `Quick test_categorical;
    Alcotest.test_case "reference costs sane" `Quick test_reference_costs_sane;
    Alcotest.test_case "volume discount segments" `Quick test_volume_segments;
    Alcotest.test_case "synth determinism" `Quick test_synth_deterministic;
    Alcotest.test_case "enterprise1 matches Table II" `Quick test_enterprise1_shape;
    Alcotest.test_case "florida matches Table II" `Quick test_florida_shape;
    Alcotest.test_case "federal matches Table II" `Slow test_federal_shape;
    Alcotest.test_case "scaling" `Quick test_scaling;
    Alcotest.test_case "split preprocessing applied" `Quick test_groups_fit_targets;
    Fixtures.property prop_synth_valid_across_seeds;
  ]
