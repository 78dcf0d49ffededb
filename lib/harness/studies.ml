open Etransform

type comparison_row = {
  algorithm : string;
  summary : Evaluate.summary;
}

let section title =
  Printf.printf "\n===== %s =====\n%!" title

(* Raised from 0.1 once the B&B core grew root cuts, the feasibility
   pump, and the pump-and-fix completion: at 0.25 the MILP now lands a
   true incumbent inside the study's 60 s budget, where the old
   most-fractional tree never found one at any scale. *)
let federal_scale_default () =
  match Sys.getenv_opt "ETRANSFORM_FEDERAL_SCALE" with
  | Some s -> (try float_of_string s with _ -> 0.25)
  | None -> 0.25

(* Case-study solver configuration: economies of scale and site opening
   charges on, budgets sized for a laptop run. *)
let case_builder =
  {
    Lp_builder.default_options with
    Lp_builder.economies_of_scale = true;
    fixed_charges = true;
  }

let case_milp =
  {
    Solver.default_milp_options with
    Lp.Milp.node_limit = 4;
    time_limit = 60.0;
  }

(* Size-aware node budget.  The small case studies keep the 4-node
   tree; a large estate such as Federal at scale 0.25 (~12k columns)
   gets a deeper one.  The threshold sits well above Enterprise1/Florida
   and below any Federal scale that needs the deeper tree. *)
let case_milp_for asis =
  if Asis.num_groups asis > 300 then { case_milp with Lp.Milp.node_limit = 24 }
  else case_milp

let datasets ?(federal_scale = federal_scale_default ()) () =
  [
    ("Enterprise1", Datasets.Enterprise1.asis ());
    ("Florida", Datasets.Florida.asis ());
    ( Printf.sprintf "Federal(x%.2g)" federal_scale,
      Datasets.Federal.asis ~scale:federal_scale () );
  ]

(* ------------------------------------------------------------------ E0 *)

let e0_datasets () =
  section "E0: dataset summaries (paper Figs. 2-3, Tables I-II)";
  let rows =
    [
      ("enterprise1", Datasets.Enterprise1.asis ());
      ("florida", Datasets.Florida.asis ());
      ("federal", Datasets.Federal.asis ());
    ]
    |> List.map (fun (name, asis) ->
           let sensitive =
             Array.to_list asis.Asis.groups
             |> List.filter (fun (g : App_group.t) ->
                    Latency_penalty.is_sensitive g.App_group.latency)
             |> List.length
           in
           [
             name;
             string_of_int (Asis.num_groups asis);
             string_of_int (Asis.total_servers asis);
             string_of_int (Array.length asis.Asis.current);
             string_of_int (Asis.num_targets asis);
             string_of_int (Asis.total_target_capacity asis);
             string_of_int sensitive;
           ])
  in
  print_string
    (Report.table
       ~header:
         [ "dataset"; "app-groups"; "servers"; "as-is DCs"; "target DCs";
           "capacity"; "latency-sensitive" ]
       rows)

(* ------------------------------------------------------------- E1 / E2 *)

let print_comparison title asis_total rows =
  print_string (Printf.sprintf "-- %s --\n" title);
  print_string
    (Report.table ~header:Report.comparison_header
       (Report.comparison_rows ~asis_total
          (List.map (fun r -> (r.algorithm, r.summary)) rows)))

let run_case ~dr (name, asis) =
  let entries =
    if not dr then begin
      let asis_sum = Evaluate.asis_state asis in
      let manual = Evaluate.plan asis (Manual.plan asis) in
      let greedy = Evaluate.plan asis (Greedy.plan asis) in
      let et =
        (Solver.consolidate ~builder:case_builder ~milp:(case_milp_for asis)
           asis)
          .Solver.summary
      in
      [
        { algorithm = "AS-IS"; summary = asis_sum };
        { algorithm = "MANUAL"; summary = manual };
        { algorithm = "GREEDY"; summary = greedy };
        { algorithm = "ETRANSFORM"; summary = et };
      ]
    end
    else begin
      let asis_dr = Evaluate.asis_with_basic_dr asis in
      let manual = Evaluate.plan asis (Manual.plan_dr asis) in
      let greedy = Evaluate.plan asis (Greedy.plan_dr asis) in
      let et =
        (Dr_planner.plan
           ~options:
             {
               Dr_planner.default_options with
               Dr_planner.milp = case_milp_for asis;
               economies_of_scale = true;
             }
           asis)
          .Solver.summary
      in
      [
        { algorithm = "AS-IS+DR"; summary = asis_dr };
        { algorithm = "MANUAL"; summary = manual };
        { algorithm = "GREEDY"; summary = greedy };
        { algorithm = "ETRANSFORM"; summary = et };
      ]
    end
  in
  let asis_total = Evaluate.total (List.hd entries).summary.Evaluate.cost in
  print_comparison name asis_total entries;
  (name, entries)

let e1_consolidation ?federal_scale () =
  section "E1: consolidation case studies, non-DR (paper Fig. 4 + Tables 4d/4e)";
  List.map (run_case ~dr:false) (datasets ?federal_scale ())

let e2_dr ?federal_scale () =
  section "E2: integrated consolidation + DR (paper Fig. 6 + Tables 6d/6e)";
  List.map (run_case ~dr:true) (datasets ?federal_scale ())

(* --------------------------------------------- service-routed sweeps *)

(* Every parameter study (E3-E6) solves swept line-estate scenarios, and
   all of them go through this one path: build service jobs, run them
   through a worker pool fronted by the plan cache, and hand each study
   its outcomes back in submission order.  Per-job solves are
   deterministic, so the printed tables are identical to the historical
   sequential runs for any worker count. *)

let pool_workers () =
  match Sys.getenv_opt "ETRANSFORM_POOL_WORKERS" with
  | Some s -> ( try max 0 (int_of_string s) with _ -> 2)
  | None -> 2

(* The studies' historical line-estate MILP budget. *)
let line_milp_overrides =
  {
    Service.Job.no_overrides with
    Service.Job.node_limit = Some 2;
    time_limit = Some 20.0;
  }

(* Jobs run with [degrade = false]: the sweeps must see solver failures
   (E4 probes infeasible corners and skips them), not greedy stand-ins. *)
let line_job ?dr ?omega ?reserve ?dr_server_cost ~penalty cfg =
  Service.Job.v ?dr ?omega ?reserve ?dr_server_cost
    ~milp:line_milp_overrides ~degrade:false
    (Line_jobs.estate ~penalty cfg)

(* [sweep_line_jobs jobs] returns one [Solver.outcome option] per job, in
   order; [None] marks a failed solve. *)
let sweep_line_jobs jobs =
  Service.Pool.with_pool ~workers:(pool_workers ())
    ~queue_capacity:(max 1 (List.length jobs))
    (fun pool ->
      Service.Pool.run_batch pool jobs
      |> List.map (fun r ->
             match r.Service.Pool.code with
             | Service.Pool.Solved | Service.Pool.Degraded ->
                 r.Service.Pool.outcome
             | Service.Pool.Failed -> None))

let require_outcome study = function
  | Some o -> o
  | None -> failwith (study ^ ": line-estate solve failed")

let chunk n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

(* ------------------------------------------------------------------ E3 *)

let e3_latency_penalty () =
  section "E3: influence of the latency penalty (paper Fig. 7)";
  let penalties = [ 0.0; 20.0; 40.0; 60.0; 80.0; 100.0; 120.0 ] in
  let distributions =
    [ (0.0, "all@9"); (0.25, "25%@0"); (0.5, "50/50"); (0.75, "75%@0");
      (1.0, "all@0") ]
  in
  let specs =
    List.concat_map
      (fun p -> List.map (fun (frac, _) -> (p, frac)) distributions)
      penalties
  in
  let jobs =
    List.map
      (fun (p, frac) ->
        line_job ~penalty:p
          { Line_estate.default with Line_estate.frac_at_0 = frac })
      specs
  in
  let cells =
    List.map2
      (fun (p, frac) outcome ->
        let o = require_outcome "e3" outcome in
        let cfg =
          {
            Line_estate.default with
            Line_estate.frac_at_0 = frac;
            latency_penalty = Line_estate.banded_penalty p;
          }
        in
        let asis = Line_estate.make cfg in
        let s = o.Solver.summary in
        ( p,
          frac,
          Evaluate.total s.Evaluate.cost,
          s.Evaluate.cost.Evaluate.space,
          Line_estate.mean_user_latency asis o.Solver.placement ))
      specs
      (sweep_line_jobs jobs)
    |> chunk (List.length distributions)
  in
  let header = "penalty" :: List.map snd distributions in
  let table_of f =
    List.map
      (fun row ->
        match row with
        | [] -> []
        | (p, _, _, _, _) :: _ ->
            Printf.sprintf "$%.0f" p
            :: List.map (fun cell -> f cell) row)
      cells
  in
  print_string "-- Fig 7(a): total cost --\n";
  print_string
    (Report.table ~header (table_of (fun (_, _, t, _, _) -> Report.money t)));
  print_string "-- Fig 7(b): space cost --\n";
  print_string
    (Report.table ~header (table_of (fun (_, _, _, s, _) -> Report.money s)));
  print_string "-- Fig 7(c): mean user latency (ms) --\n";
  print_string
    (Report.table ~header
       (table_of (fun (_, _, _, _, l) -> Printf.sprintf "%.1f" l)));
  cells

(* ------------------------------------------------------------------ E4 *)

(* The two-stage DR planner does not see the primary-spread/pool-size
   coupling, so sweep the business-impact knob and keep the cheapest plan —
   exactly the lever the paper's joint LP optimizes implicitly.  Spread
   points that come back infeasible are simply skipped; ties keep the
   earliest (widest) spread. *)
let spread_omegas = [ 1.0; 0.51; 0.35; 0.26; 0.15; 0.11 ]

let best_by_spread study outcomes =
  let best = ref None in
  List.iter
    (function
      | None -> ()
      | Some o -> (
          let c = Evaluate.total o.Solver.summary.Evaluate.cost in
          match !best with
          | Some (c0, _) when c0 <= c -> ()
          | _ -> best := Some (c, o)))
    outcomes;
  match !best with
  | Some (_, o) -> o
  | None -> failwith (study ^ ": no feasible plan")

let e4_dr_server_cost () =
  section "E4: influence of the DR server cost (paper Fig. 8)";
  let zetas = [ 1.0; 10.0; 100.0; 1000.0; 10000.0 ] in
  (* Steep space costs make consolidation clearly best when backup
     servers are nearly free; expensive backups then reward spreading
     primaries so pools can shrink and be shared. *)
  let cfg =
    { Line_estate.default with Line_estate.capacity = 400; space_step = 120.0 }
  in
  let jobs =
    List.concat_map
      (fun zeta ->
        List.map
          (fun w ->
            line_job ~dr:true
              ?omega:(if w >= 1.0 then None else Some w)
              ~reserve:0.3 ~dr_server_cost:zeta ~penalty:0.0 cfg)
          spread_omegas)
      zetas
  in
  let per_zeta = chunk (List.length spread_omegas) (sweep_line_jobs jobs) in
  let results =
    List.map2
      (fun zeta outcomes ->
        let asis = Line_estate.make cfg in
        let asis =
          { asis with
            Asis.params = { asis.Asis.params with Asis.dr_server_cost = zeta } }
        in
        let o = best_by_spread "e4" outcomes in
        let primary_sites =
          Array.to_list o.Solver.placement.Placement.primary
          |> List.sort_uniq compare |> List.length
        in
        let pools =
          Array.fold_left ( +. ) 0.0
            (Placement.backup_servers asis o.Solver.placement)
        in
        (zeta, primary_sites, pools))
      zetas per_zeta
  in
  print_string
    (Report.table
       ~header:[ "DR server cost"; "DCs used (primaries)"; "DR servers" ]
       (List.map
          (fun (z, d, p) ->
            [ Printf.sprintf "$%.0f" z; string_of_int d; Printf.sprintf "%.0f" p ])
          results));
  results

(* ------------------------------------------------------------------ E5 *)

let e5_space_wan_tradeoff () =
  section "E5: space cost vs WAN cost tradeoff (paper Fig. 9)";
  (* Users at location 9; dedicated VPN links priced by distance; space
     cheapest at location 0.  Cost of hosting the whole estate at each
     candidate location exposes the tradeoff. *)
  let cfg =
    {
      Line_estate.default with
      Line_estate.frac_at_0 = 0.0;
      use_vpn = true;
      space_step = 60.0;
      vpn_per_ms = 60.0;
      data_mb_month = 2_000_000.0;
      capacity = 400;
    }
  in
  let asis = Line_estate.make cfg in
  let m = Asis.num_groups asis in
  (* The engine run goes through the service pool; the per-location rows
     are plain evaluations and stay inline. *)
  let consolidated = sweep_line_jobs [ line_job ~penalty:0.0 cfg ] in
  let rows =
    List.init (Asis.num_targets asis) (fun j ->
        let p = Placement.non_dr (Array.make m j) in
        let s = Evaluate.plan asis p in
        let c = s.Evaluate.cost in
        (j, c.Evaluate.space, c.Evaluate.wan, Evaluate.total c))
  in
  print_string
    (Report.table ~header:[ "location"; "space"; "WAN"; "total" ]
       (List.map
          (fun (j, s, w, t) ->
            [ string_of_int j; Report.money s; Report.money w; Report.money t ])
          rows));
  let totals = List.map (fun (_, _, _, t) -> t) rows in
  let ratio =
    List.fold_left Float.max neg_infinity totals
    /. List.fold_left Float.min infinity totals
  in
  let best_j, _, _, _ =
    List.fold_left
      (fun ((_, _, _, bt) as b) ((_, _, _, t) as r) -> if t < bt then r else b)
      (List.hd rows) rows
  in
  let o = require_outcome "e5" (List.hd consolidated) in
  let chosen =
    Array.to_list o.Solver.placement.Placement.primary
    |> List.sort_uniq compare
  in
  Printf.printf
    "cheapest-by-total location: %d; eTransform places groups at: %s; \
     max/min total ratio: %.1fx\n%!"
    best_j
    (String.concat "," (List.map string_of_int chosen))
    ratio;
  (rows, ratio)

(* ------------------------------------------------------------------ E6 *)

let e6_placement_growth () =
  section "E6: placement as the estate grows (paper Fig. 10)";
  let points = [ 10; 20; 30; 40; 50; 60; 70 ] in
  (* Per-DC capacity of 100 with 4-server groups: 25 groups per site,
     mirroring the paper's fill-up-then-overflow staircase. *)
  let cfg_of n_groups =
    {
      Line_estate.default with
      Line_estate.n_groups;
      capacity = 100;
      frac_at_0 = 0.0;
      use_vpn = true;
      space_step = 60.0;
      data_mb_month = 2_000_000.0;
    }
  in
  let outcomes =
    sweep_line_jobs
      (List.map (fun n -> line_job ~penalty:0.0 (cfg_of n)) points)
  in
  let results =
    List.map2
      (fun n_groups outcome ->
        let asis = Line_estate.make (cfg_of n_groups) in
        let o = require_outcome "e6" outcome in
        let counts = Array.make (Asis.num_targets asis) 0 in
        Array.iter
          (fun j -> counts.(j) <- counts.(j) + 1)
          o.Solver.placement.Placement.primary;
        let used =
          List.init (Array.length counts) Fun.id
          |> List.filter (fun j -> counts.(j) > 0)
        in
        (n_groups, List.length used, used))
      points outcomes
  in
  print_string
    (Report.table ~header:[ "app groups"; "DCs used"; "locations" ]
       (List.map
          (fun (n, k, used) ->
            [
              string_of_int n;
              string_of_int k;
              String.concat "," (List.map string_of_int used);
            ])
          results));
  results

(* ------------------------------------------------------------------ E7 *)

let e7_scenario_frontier () =
  section "E7: scenario sweeps — cost vs resilience, replan vs cold";
  (* Part A: DR sweep on Florida over early-warning window x spread ω,
     through the service pool like any client sweep.  Every point is
     scored under the strictest spec the grid reaches (here the 7200 s
     warning window), so resilience is comparable across the column. *)
  let base =
    Service.Job.v ~id:"e7-florida" ~dr:true
      ~milp:
        { Service.Job.no_overrides with
          Service.Job.node_limit = Some 2;
          time_limit = Some 10.0 }
      (Service.Job.Dataset
         { name = "florida"; scale = 0.5; seed = 0; groups = 0; targets = 0 })
  in
  let grid =
    { Service.Sweep.empty_grid with
      Service.Sweep.warning_s = [ None; Some 7200.0 ];
      omega = [ None; Some 0.5 ] }
  in
  let summary, points =
    Service.Pool.with_pool ~workers:0 ~cache_capacity:16 (fun pool ->
        let acc = ref [] in
        let s =
          Service.Sweep.run pool base grid ~f:(fun p -> acc := p :: !acc)
        in
        (s, List.rev !acc))
  in
  let on_frontier tag =
    List.exists
      (fun (p : Scenario.Pareto.point) -> p.Scenario.Pareto.tag = tag)
      summary.Service.Sweep.frontier
  in
  let num = function Some f -> Printf.sprintf "%.2f" f | None -> "-" in
  print_string
    (Report.table
       ~header:[ "grid point"; "cost/month"; "resilience"; "frontier" ]
       (List.map
          (fun (p : Service.Sweep.point) ->
            [
              p.Service.Sweep.tag;
              num p.Service.Sweep.cost;
              num p.Service.Sweep.resilience;
              (if on_frontier p.Service.Sweep.tag then "*" else "");
            ])
          points));
  Printf.printf "frontier: %d of %d points non-dominated\n%!"
    (List.length summary.Service.Sweep.frontier)
    summary.Service.Sweep.points;
  (* Part B: incremental re-plan against estate drift.  Resize one group
     and grow another's data (2 of M groups, well under 10% drift), then
     compare a cold solve of the drifted estate with Delta.replan, which
     pins every structurally-unchanged group to its previous primary and
     warm-starts the tree. *)
  let asis = Datasets.Florida.asis ~scale:0.5 () in
  let milp = case_milp_for asis in
  let time f =
    let t0 = Lp.Clock.now () in
    let r = f () in
    (r, Lp.Clock.now () -. t0)
  in
  let previous, _ = time (fun () -> Solver.consolidate ~milp asis) in
  let g0 = asis.Asis.groups.(0) and g1 = asis.Asis.groups.(1) in
  let drifted =
    Scenario.Delta.apply asis
      [
        Scenario.Delta.Resize (g0.App_group.name, g0.App_group.servers + 1);
        Scenario.Delta.Scale_data (g1.App_group.name, 1.1);
      ]
  in
  let cold, cold_s = time (fun () -> Solver.consolidate ~milp drifted) in
  let warm, warm_s =
    time (fun () ->
        Scenario.Delta.replan ~milp
          ~previous:(asis, previous.Solver.placement)
          drifted)
  in
  print_string
    (Report.table
       ~header:[ "re-plan of drifted estate"; "cost/month"; "wall s" ]
       [
         [
           "cold solve";
           Printf.sprintf "%.2f" (Evaluate.total cold.Solver.summary.Evaluate.cost);
           Printf.sprintf "%.3f" cold_s;
         ];
         [
           Printf.sprintf "warm re-plan (%d of %d groups pinned)"
             warm.Scenario.Delta.pinned (Asis.num_groups drifted);
           Printf.sprintf "%.2f"
             (Evaluate.total
                warm.Scenario.Delta.outcome.Solver.summary.Evaluate.cost);
           Printf.sprintf "%.3f" warm_s;
         ];
       ]);
  Printf.printf "replan speed-up: %.1fx (%d groups changed of %d)\n%!"
    (cold_s /. Float.max warm_s 1e-9)
    2 (Asis.num_groups asis);
  (summary, (cold_s, warm_s))

let all () =
  e0_datasets ();
  ignore (e1_consolidation ());
  ignore (e2_dr ());
  ignore (e3_latency_penalty ());
  ignore (e4_dr_server_cost ());
  ignore (e5_space_wan_tradeoff ());
  ignore (e6_placement_growth ());
  ignore (e7_scenario_frontier ())
