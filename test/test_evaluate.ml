(* The exact cost evaluator against hand-computed numbers on the fixture
   estate (see fixtures.ml for the per-server cost table). *)

open Etransform

let total asis p = Evaluate.total (Evaluate.plan asis p).Evaluate.cost

let test_cost_model_components () =
  let asis = Fixtures.asis () in
  let a = asis.Asis.targets.(0) and b = asis.Asis.targets.(1) in
  Alcotest.(check (float 1e-9)) "power+labor at A" 20.0
    (Cost_model.power_labor_per_server asis a);
  Alcotest.(check (float 1e-9)) "power+labor at B" 40.0
    (Cost_model.power_labor_per_server asis b);
  Alcotest.(check (float 1e-9)) "wan g0 at A" 1.0
    (Cost_model.wan_cost asis ~group:0 a);
  Alcotest.(check (float 1e-9)) "wan g1 at B" 4.0
    (Cost_model.wan_cost asis ~group:1 b);
  Alcotest.(check (float 1e-9)) "avg latency g0 at A" 5.0
    (Cost_model.avg_latency_ms asis ~group:0 a);
  Alcotest.(check (float 1e-9)) "avg latency g2 at A" 12.5
    (Cost_model.avg_latency_ms asis ~group:2 a);
  Alcotest.(check (float 1e-9)) "penalty g0 at B" 100.0
    (Cost_model.latency_penalty asis ~group:0 b);
  Alcotest.(check (float 1e-9)) "penalty g0 at A" 0.0
    (Cost_model.latency_penalty asis ~group:0 a);
  (* Full assignment coefficient of g0 at A: 4 * (100+10+10) + 1 + 0. *)
  Alcotest.(check (float 1e-9)) "assign cost g0 at A" 481.0
    (Cost_model.assign_cost asis ~group:0 0)

let test_plan_breakdown () =
  let asis = Fixtures.asis () in
  (* g0->A, g1->B, g2->C, g3->A. *)
  let s = Evaluate.plan asis (Placement.non_dr [| 0; 1; 2; 0 |]) in
  let c = s.Evaluate.cost in
  (* space: A holds 6 servers @100, B 3 @80, C 5 @120. *)
  Alcotest.(check (float 1e-9)) "space" (600.0 +. 240.0 +. 600.0) c.Evaluate.space;
  (* power: A 6*10*1, B 3*10*2, C 5*10*1. *)
  Alcotest.(check (float 1e-9)) "power" (60.0 +. 60.0 +. 50.0) c.Evaluate.power;
  (* labor: A 6*10, B 3*20, C 5*10. *)
  Alcotest.(check (float 1e-9)) "labor" (60.0 +. 60.0 +. 50.0) c.Evaluate.labor;
  (* wan: 1000*1e-3 + 2000*2e-3 + 500*1e-3 + 100*1e-3. *)
  Alcotest.(check (float 1e-9)) "wan" 5.6 c.Evaluate.wan;
  Alcotest.(check (float 1e-9)) "no penalty" 0.0 c.Evaluate.latency_penalty;
  Alcotest.(check int) "no violations" 0 s.Evaluate.violations;
  Alcotest.(check int) "three DCs" 3 s.Evaluate.dcs_used

let test_plan_with_violations () =
  let asis = Fixtures.asis () in
  (* g0 (east users) at B sees 20ms -> $1 x 100 users; g1 (west) at A sees
     20ms -> $2 x 50. *)
  let s = Evaluate.plan asis (Placement.non_dr [| 1; 0; 2; 0 |]) in
  Alcotest.(check (float 1e-9)) "penalty" 200.0 s.Evaluate.cost.Evaluate.latency_penalty;
  Alcotest.(check int) "violations" 2 s.Evaluate.violations

let test_operational_excludes_penalty () =
  let asis = Fixtures.asis () in
  let s = Evaluate.plan asis (Placement.non_dr [| 1; 0; 2; 0 |]) in
  Alcotest.(check (float 1e-9)) "op = total - penalty"
    (Evaluate.total s.Evaluate.cost -. 200.0)
    (Evaluate.operational s.Evaluate.cost)

let test_dr_costs () =
  let asis = Fixtures.asis () in
  let p = Placement.with_dr ~primary:[| 0; 0; 1; 1 |] ~secondary:[| 2; 2; 2; 2 |] () in
  let s = Evaluate.plan asis p in
  (* Shared pool at C is 7 servers: capex 7 * 1000. *)
  Alcotest.(check (float 1e-9)) "backup capex" 7000.0 s.Evaluate.cost.Evaluate.backup_capex;
  (* Backup ops at C: 7 * (120 space + 10 power + 10 labor). *)
  Alcotest.(check (float 1e-9)) "backup ops" (7.0 *. 140.0)
    s.Evaluate.cost.Evaluate.backup_ops;
  Alcotest.(check int) "uses three DCs" 3 s.Evaluate.dcs_used

let test_asis_state_cost () =
  let asis = Fixtures.asis () in
  let s = Evaluate.asis_state asis in
  (* cur0 holds g0,g1 (7 servers @150); cur1 holds g2,g3 (7 @160). *)
  Alcotest.(check (float 1e-9)) "space" (7.0 *. 150.0 +. 7.0 *. 160.0)
    s.Evaluate.cost.Evaluate.space;
  Alcotest.(check int) "both DCs used" 2 s.Evaluate.dcs_used;
  (* cur0 at 15ms east violates g0 (threshold 10); g1's users are west at
     25ms, also violated. *)
  Alcotest.(check int) "violations" 2 s.Evaluate.violations

let test_asis_with_basic_dr_adds_cost () =
  let asis = Fixtures.asis () in
  let base = Evaluate.total (Evaluate.asis_state asis).Evaluate.cost in
  let dr = Evaluate.asis_with_basic_dr asis in
  Alcotest.(check bool) "strictly more expensive" true
    (Evaluate.total dr.Evaluate.cost > base);
  (* Worst single site holds 7 servers -> pool of 7 at the backup site. *)
  Alcotest.(check (float 1e-9)) "pool sized for worst site" 7000.0
    dr.Evaluate.cost.Evaluate.backup_capex

let test_vpn_wan_mode () =
  let asis = Fixtures.asis () in
  let vpn_params = { Fixtures.params with Asis.use_vpn = true;
                     vpn_link_capacity_mb = 500.0 } in
  let targets =
    Array.map
      (fun (d : Data_center.t) -> { d with Data_center.vpn_monthly = [| 10.0; 30.0 |] })
      asis.Asis.targets
  in
  let asis = { asis with Asis.params = vpn_params; targets } in
  (* g0: all users east, 1000 Mb/mo over 500 Mb links -> 2 links at $10. *)
  Alcotest.(check (float 1e-9)) "vpn links east" 20.0
    (Cost_model.wan_cost asis ~group:0 asis.Asis.targets.(0));
  (* g2: users 20/20, 500 Mb total -> 0.5 links each way: 0.5*10 + 0.5*30. *)
  Alcotest.(check (float 1e-9)) "vpn links split" 20.0
    (Cost_model.wan_cost asis ~group:2 asis.Asis.targets.(0))

let test_fixed_charges_counted_once () =
  let asis = Fixtures.asis () in
  let targets =
    Array.map
      (fun (d : Data_center.t) ->
        { d with Data_center.rates = { d.Data_center.rates with Data_center.fixed_monthly = 1000.0 } })
      asis.Asis.targets
  in
  let asis = { asis with Asis.targets } in
  let one_dc = Evaluate.plan asis (Placement.non_dr [| 2; 2; 2; 2 |]) in
  Alcotest.(check (float 1e-9)) "one site opened" 1000.0 one_dc.Evaluate.cost.Evaluate.fixed;
  let two_dc = Evaluate.plan asis (Placement.non_dr [| 0; 0; 2; 2 |]) in
  Alcotest.(check (float 1e-9)) "two sites opened" 2000.0 two_dc.Evaluate.cost.Evaluate.fixed

(* Consistency: the evaluator's total equals the sum of its parts, for any
   feasible plan on a synthetic estate. *)
let prop_total_is_sum =
  Check.prop ~count:50 "breakdown sums to total" (Fixtures.seed_arb 1000)
    (fun seed ->
      let asis = Fixtures.synthetic ~seed () in
      let p = Greedy.plan asis in
      let s = Evaluate.plan asis p in
      let c = s.Evaluate.cost in
      let parts =
        c.Evaluate.space +. c.Evaluate.wan +. c.Evaluate.power
        +. c.Evaluate.labor +. c.Evaluate.fixed +. c.Evaluate.latency_penalty
        +. c.Evaluate.backup_capex +. c.Evaluate.backup_ops
      in
      if Float.abs (parts -. Evaluate.total c) < 1e-6 *. (1.0 +. parts) then
        Ok ()
      else Fixtures.errorf "parts %g, total %g" parts (Evaluate.total c))

let prop_moving_to_cheaper_dc_never_counted_wrong =
  (* Evaluating the same plan twice is deterministic. *)
  Check.prop ~count:20 "evaluation deterministic" (Fixtures.seed_arb 1000)
    (fun seed ->
      let asis = Fixtures.synthetic ~seed () in
      let p = Greedy.plan asis in
      let a = total asis p and b = total asis p in
      if a = b then Ok () else Fixtures.errorf "total %h, then %h" a b)

(* Every entry of the pair table has the bits of a direct call, and an
   estate derived with [{ asis with ... }] gets a table of its own. *)
let test_pair_table_matches_direct () =
  let same name a b =
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      Alcotest.failf "%s: table %h, direct %h" name a b
  in
  let check_table label asis =
    let t = Cost_model.pairs asis in
    Alcotest.(check bool) (label ^ ": keyed on this estate") true
      (t.Cost_model.estate == asis);
    Array.iteri
      (fun j dc ->
        for i = 0 to Asis.num_groups asis - 1 do
          let at = Printf.sprintf "%s (%d, %d)" label i j in
          same ("wan " ^ at) t.Cost_model.wan.(i).(j)
            (Cost_model.wan_cost asis ~group:i dc);
          same ("penalty " ^ at) t.Cost_model.penalty.(i).(j)
            (Cost_model.latency_penalty asis ~group:i dc)
        done)
      asis.Asis.targets;
    t
  in
  List.iter
    (fun (label, asis) ->
      let t = check_table label asis in
      Alcotest.(check bool) (label ^ ": memo hit") true
        (Cost_model.pairs asis == t);
      let flipped =
        {
          asis with
          Asis.targets = Array.of_list (List.rev (Array.to_list asis.Asis.targets));
        }
      in
      let t' = check_table (label ^ " flipped") flipped in
      Alcotest.(check bool) (label ^ ": copy has its own table") true (t' != t);
      ignore (check_table (label ^ " again") asis))
    [
      ("line", Fixtures.line ());
      ("line vpn", Fixtures.line ~use_vpn:true ());
      ("synthetic", Fixtures.synthetic ~groups:30 ~targets:6 ());
      ("florida x0.3", Datasets.Florida.asis ~scale:0.3 ());
    ]

let suite =
  [
    Alcotest.test_case "cost model components" `Quick test_cost_model_components;
    Alcotest.test_case "plan breakdown" `Quick test_plan_breakdown;
    Alcotest.test_case "violations counted" `Quick test_plan_with_violations;
    Alcotest.test_case "operational vs total" `Quick test_operational_excludes_penalty;
    Alcotest.test_case "DR pool costs" `Quick test_dr_costs;
    Alcotest.test_case "as-is state cost" `Quick test_asis_state_cost;
    Alcotest.test_case "as-is + basic DR" `Quick test_asis_with_basic_dr_adds_cost;
    Alcotest.test_case "VPN WAN pricing" `Quick test_vpn_wan_mode;
    Alcotest.test_case "fixed charges once per site" `Quick test_fixed_charges_counted_once;
    Alcotest.test_case "pair table matches direct costs" `Quick
      test_pair_table_matches_direct;
    Fixtures.property prop_total_is_sum;
    Fixtures.property prop_moving_to_cheaper_dc_never_counted_wrong;
  ]
