(* Geography substrate: distances, latency model, synthetic topologies. *)

let test_haversine_known () =
  let ny = Geo.Location.v ~name:"NY" ~lat:40.71 ~lon:(-74.01) in
  let london = Geo.Location.v ~name:"LDN" ~lat:51.51 ~lon:(-0.13) in
  let d = Geo.Location.distance_km ny london in
  (* Great-circle NY-London is about 5570 km. *)
  Alcotest.(check bool) "transatlantic distance" true (d > 5400.0 && d < 5750.0)

let test_haversine_zero () =
  let p = Geo.Location.v ~name:"p" ~lat:10.0 ~lon:20.0 in
  Alcotest.(check (float 1e-9)) "self distance" 0.0 (Geo.Location.distance_km p p)

let test_haversine_symmetric () =
  let a = Geo.Location.v ~name:"a" ~lat:48.86 ~lon:2.35 in
  let b = Geo.Location.v ~name:"b" ~lat:35.68 ~lon:139.65 in
  Alcotest.(check (float 1e-6))
    "symmetry"
    (Geo.Location.distance_km a b)
    (Geo.Location.distance_km b a)

let test_rtt () =
  Alcotest.(check (float 1e-9)) "base only" 1.0 (Geo.Latency_model.rtt_ms 0.0);
  Alcotest.(check (float 1e-9)) "1000km" 11.0 (Geo.Latency_model.rtt_ms 1000.0);
  Alcotest.(check (float 1e-9))
    "custom base" 25.0
    (Geo.Latency_model.rtt_ms ~base_ms:5.0 2000.0)

let test_average_weighted () =
  let row = [| 10.0; 20.0; 30.0 |] in
  Alcotest.(check (float 1e-9))
    "uniform" 20.0
    (Geo.Latency_model.average ~weights:[| 1.0; 1.0; 1.0 |] row);
  Alcotest.(check (float 1e-9))
    "concentrated" 10.0
    (Geo.Latency_model.average ~weights:[| 5.0; 0.0; 0.0 |] row);
  Alcotest.(check (float 1e-9))
    "zero mass" 0.0
    (Geo.Latency_model.average ~weights:[| 0.0; 0.0; 0.0 |] row)

let test_average_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Latency_model.average: length mismatch") (fun () ->
      ignore (Geo.Latency_model.average ~weights:[| 1.0 |] [| 1.0; 2.0 |]))

let test_paper_classes () =
  let lat, classes = Geo.Topology.paper_classes ~n_dcs:10 ~n_users:4 () in
  Alcotest.(check int) "rows" 10 (Array.length lat);
  (* Class 0 DC: 5ms to location 0, 20ms elsewhere. *)
  Alcotest.(check (float 1e-9)) "near" 5.0 lat.(0).(0);
  Alcotest.(check (float 1e-9)) "far" 20.0 lat.(0).(1);
  (* Class 4 (balanced) DC: 10ms everywhere. *)
  Alcotest.(check int) "balanced class" 4 classes.(4);
  Array.iter (fun l -> Alcotest.(check (float 1e-9)) "balanced" 10.0 l) lat.(4);
  (* All five classes appear among ten DCs. *)
  let seen = Array.make 5 false in
  Array.iter (fun c -> seen.(c) <- true) classes;
  Alcotest.(check bool) "all classes present" true (Array.for_all Fun.id seen)

let test_line_topology () =
  let lat =
    Geo.Topology.line ~n:10 ~base_ms:2.0 ~ms_per_hop:3.0
      ~user_positions:[| 0; 9 |] ()
  in
  let quad =
    Geo.Topology.line ~exponent:2.0 ~n:10 ~base_ms:2.0 ~ms_per_hop:2.0
      ~user_positions:[| 0; 9 |] ()
  in
  Alcotest.(check (float 1e-9)) "quadratic growth" (2.0 +. 2.0 *. 81.0) quad.(9).(0);
  Alcotest.(check (float 1e-9)) "dc0 to loc0" 2.0 lat.(0).(0);
  Alcotest.(check (float 1e-9)) "dc0 to loc9" 29.0 lat.(0).(1);
  Alcotest.(check (float 1e-9)) "dc9 to loc9" 2.0 lat.(9).(1);
  Alcotest.(check (float 1e-9)) "dc5 to loc0" 17.0 lat.(5).(0)

let test_places_regions () =
  Alcotest.(check bool) "gazetteer nonempty" true (Array.length Geo.Places.all > 20);
  Alcotest.(check bool) "finds London" true (Geo.Places.find "London" <> None);
  Alcotest.(check bool) "misses nowhere" true (Geo.Places.find "Nowhere" = None);
  Alcotest.(check bool) "europe populated" true
    (List.length (Geo.Places.in_region Geo.Places.Europe) >= 5)

let prop_rtt_monotone =
  let dist = Check.Gen.float_range 0.0 20000.0 in
  Check.prop ~count:100 "rtt grows with distance"
    (Check.arb
       ~shrink:Check.Shrink.(pair float float)
       ~pp:Fmt.(Dump.pair (fmt "%.17g") (fmt "%.17g"))
       (Check.Gen.pair dist dist))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let rtt_lo = Geo.Latency_model.rtt_ms lo
      and rtt_hi = Geo.Latency_model.rtt_ms hi in
      if rtt_lo <= rtt_hi +. 1e-9 then Ok ()
      else
        Fixtures.errorf "rtt %g ms at %g km > %g ms at %g km" rtt_lo lo rtt_hi
          hi)

let prop_triangle_inequality =
  let gen_loc =
    Check.Gen.pair
      (Check.Gen.float_range (-80.0) 80.0)
      (Check.Gen.float_range (-180.0) 180.0)
  in
  let shrink_loc = Check.Shrink.(pair float float) in
  let pp_loc = Fmt.(Dump.pair (fmt "%.17g") (fmt "%.17g")) in
  Check.prop ~count:100 "haversine triangle inequality"
    (Check.arb
       ~shrink:Check.Shrink.(triple shrink_loc shrink_loc shrink_loc)
       ~pp:Fmt.(Dump.list pp_loc |> using (fun (a, b, c) -> [ a; b; c ]))
       (Check.Gen.triple gen_loc gen_loc gen_loc))
    (fun (a, b, c) ->
      let loc (lat, lon) = Geo.Location.v ~name:"x" ~lat ~lon in
      let a = loc a and b = loc b and c = loc c in
      let ac = Geo.Location.distance_km a c
      and ab = Geo.Location.distance_km a b
      and bc = Geo.Location.distance_km b c in
      if ac <= ab +. bc +. 1e-6 then Ok ()
      else Fixtures.errorf "d(a,c) %g > d(a,b) %g + d(b,c) %g" ac ab bc)

let suite =
  [
    Alcotest.test_case "known transatlantic distance" `Quick test_haversine_known;
    Alcotest.test_case "zero self-distance" `Quick test_haversine_zero;
    Alcotest.test_case "distance symmetry" `Quick test_haversine_symmetric;
    Alcotest.test_case "rtt model" `Quick test_rtt;
    Alcotest.test_case "weighted average latency" `Quick test_average_weighted;
    Alcotest.test_case "average length mismatch" `Quick test_average_mismatch;
    Alcotest.test_case "paper latency classes" `Quick test_paper_classes;
    Alcotest.test_case "line topology" `Quick test_line_topology;
    Alcotest.test_case "gazetteer" `Quick test_places_regions;
    Fixtures.property prop_rtt_monotone;
    Fixtures.property prop_triangle_inequality;
  ]
