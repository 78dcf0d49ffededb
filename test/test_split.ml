(* Oversized-group preprocessing (the paper's ref. [3] substitute). *)

open Etransform

let asis_with_giant () =
  let giant =
    App_group.v ~name:"giant" ~servers:25 ~data_mb_month:1000.0
      ~users:[| 100.0; 100.0 |] ()
  in
  let asis = Fixtures.asis () in
  {
    asis with
    Asis.groups = Array.append asis.Asis.groups [| giant |];
    current_placement = Array.append asis.Asis.current_placement [| 0 |];
  }

let test_detects_oversized () =
  let asis = asis_with_giant () in
  (* Largest target capacity is 20; the giant has 25 servers. *)
  Alcotest.(check (list int)) "giant flagged" [ 4 ] (Split.oversized asis)

let test_untouched_when_fits () =
  let asis = Fixtures.asis () in
  let same = Split.ensure_fits asis in
  Alcotest.(check int) "no change" (Asis.num_groups asis) (Asis.num_groups same)

let test_split_preserves_totals () =
  let asis = asis_with_giant () in
  let fixed = Split.ensure_fits asis in
  Alcotest.(check int) "servers preserved" (Asis.total_servers asis)
    (Asis.total_servers fixed);
  Alcotest.(check (list int)) "no oversized remain" [] (Split.oversized fixed);
  (* Users and traffic preserved in aggregate. *)
  let sum f estate =
    Array.fold_left (fun a g -> a +. f g) 0.0 estate.Asis.groups
  in
  Alcotest.(check (float 1e-6)) "traffic preserved"
    (sum (fun g -> g.App_group.data_mb_month) asis)
    (sum (fun g -> g.App_group.data_mb_month) fixed);
  Alcotest.(check (float 1e-6)) "users preserved"
    (sum App_group.total_users asis)
    (sum App_group.total_users fixed)

let test_split_parts_inherit () =
  let asis = asis_with_giant () in
  (* A 0.5 budget keeps parts small enough that the tight 39/40-server
     instance still packs. *)
  let fixed = Split.ensure_fits ~max_fraction:0.5 asis in
  let parts =
    Array.to_list fixed.Asis.groups
    |> List.filter (fun (g : App_group.t) ->
           String.length g.App_group.name >= 5
           && String.sub g.App_group.name 0 5 = "giant")
  in
  Alcotest.(check bool) "split into multiple parts" true (List.length parts >= 2);
  List.iter
    (fun (g : App_group.t) ->
      Alcotest.(check bool) "part fits largest target" true
        (g.App_group.servers <= 18))
    parts;
  (* The split estate still validates and plans end to end. *)
  Alcotest.(check (list string)) "validates" [] (Asis.validate fixed);
  let o = Solver.consolidate fixed in
  Alcotest.(check (list string)) "plannable" []
    (Placement.validate fixed o.Solver.placement)

let test_current_placement_follows () =
  let asis = asis_with_giant () in
  let fixed = Split.ensure_fits asis in
  Alcotest.(check int) "placement array tracks groups"
    (Asis.num_groups fixed)
    (Array.length fixed.Asis.current_placement)

let prop_split_preserves_server_totals =
  Check.prop ~count:30 "split preserves server totals" (Fixtures.seed_arb 4000)
    (fun seed ->
      let asis = Fixtures.synthetic ~seed ~groups:12 ~targets:3 () in
      let fixed = Split.ensure_fits ~max_fraction:0.3 asis in
      let before = Asis.total_servers asis
      and after = Asis.total_servers fixed in
      if after <> before then
        Fixtures.errorf "%d servers before the split, %d after" before after
      else
        match Split.oversized ~max_fraction:0.3 fixed with
        | [] -> Ok ()
        | big ->
            Fixtures.errorf "still oversized: groups %s"
              (String.concat ", " (List.map string_of_int big)))

let suite =
  [
    Alcotest.test_case "detects oversized" `Quick test_detects_oversized;
    Alcotest.test_case "no-op when everything fits" `Quick test_untouched_when_fits;
    Alcotest.test_case "totals preserved" `Quick test_split_preserves_totals;
    Alcotest.test_case "parts inherit and plan" `Quick test_split_parts_inherit;
    Alcotest.test_case "placement array tracks" `Quick test_current_placement_follows;
    Fixtures.property prop_split_preserves_server_totals;
  ]
