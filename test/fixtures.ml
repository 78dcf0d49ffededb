(* A hand-computable estate shared across the etransform test suites.

   Parameters are chosen so per-server cost components are round numbers:
   power = 0.1 kW * 100 h * E, labor = admin/130.

   Per-server monthly cost (space + power + labor):
     target A: 100 + 10 + 10 = 120     latency [5; 20]
     target B:  80 + 20 + 20 = 120     latency [20; 5]
     target C: 120 + 10 + 10 = 140     latency [10; 10]  (capacity 20) *)

open Etransform

let params =
  {
    Asis.default_params with
    Asis.server_power_kw = 0.1;
    hours_per_month = 100.0;
    servers_per_admin = 130.0;
    dr_server_cost = 1000.0;
  }

let dc ?(fixed = 0.0) ?vpn name cap space wan power admin lat =
  Data_center.v ~fixed_monthly:fixed ?vpn_monthly:vpn ~name ~capacity:cap
    ~space_segments:(Data_center.flat_space ~capacity:cap ~per_server:space)
    ~wan_per_mb:wan ~power_per_kwh:power ~admin_monthly:admin
    ~user_latency_ms:lat ()

let target_a () = dc "A" 10 100.0 1e-3 1.0 1300.0 [| 5.0; 20.0 |]
let target_b () = dc "B" 10 80.0 2e-3 2.0 2600.0 [| 20.0; 5.0 |]
let target_c () = dc "C" 20 120.0 1e-3 1.0 1300.0 [| 10.0; 10.0 |]

let group_0 () =
  App_group.v
    ~latency:(Latency_penalty.step ~threshold_ms:10.0 ~penalty_per_user:1.0)
    ~name:"g0" ~servers:4 ~data_mb_month:1000.0 ~users:[| 100.0; 0.0 |] ()

let group_1 () =
  App_group.v
    ~latency:(Latency_penalty.step ~threshold_ms:10.0 ~penalty_per_user:2.0)
    ~name:"g1" ~servers:3 ~data_mb_month:2000.0 ~users:[| 0.0; 50.0 |] ()

let group_2 () =
  App_group.v ~name:"g2" ~servers:5 ~data_mb_month:500.0
    ~users:[| 20.0; 20.0 |] ()

let group_3 () =
  App_group.v ~name:"g3" ~servers:2 ~data_mb_month:100.0
    ~users:[| 10.0; 0.0 |] ()

let asis () =
  let current =
    [|
      dc "cur0" 7 150.0 2e-3 1.0 1300.0 [| 15.0; 25.0 |];
      dc "cur1" 7 160.0 2e-3 2.0 2600.0 [| 25.0; 15.0 |];
    |]
  in
  Asis.v ~params ~name:"fixture"
    ~groups:[| group_0 (); group_1 (); group_2 (); group_3 () |]
    ~targets:[| target_a (); target_b (); target_c () |]
    ~user_locations:[| "east"; "west" |]
    ~current ~current_placement:[| 0; 0; 1; 1 |] ()

(* A slightly larger random-but-deterministic estate for solver tests,
   with [current] as-is sites and target capacities drawn from
   [capacity]. *)
let synthetic ?(seed = 42) ?(groups = 24) ?(targets = 5) ?(current = 6)
    ?(capacity = Datasets.Synth.default.Datasets.Synth.capacity_range) () =
  Datasets.Synth.generate
    {
      Datasets.Synth.default with
      Datasets.Synth.seed;
      n_groups = groups;
      n_targets = targets;
      n_current = current;
      total_servers = groups * 8;
      capacity_range = capacity;
    }

(* An outcome as the candidate-branch pins see it: the plan's primary and
   secondary sites, the local moves that polished it, the MILP status,
   the gap's bits and nodes.  The sites are hashed, not the whole
   [Placement.t], so a change to the record's other fields leaves the
   pins alone. *)
let outcome_digest (o : Solver.outcome) =
  let p = o.Solver.placement in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( p.Placement.primary,
            p.Placement.secondary,
            o.Solver.local_moves,
            Lp.Status.to_string o.Solver.milp_status,
            Int64.bits_of_float o.Solver.milp_gap,
            o.Solver.nodes )
          []))

(* A line estate of the parameter studies with a banded latency penalty,
   so the penalty differs from site to site. *)
let line ?(groups = 12) ?(use_vpn = false) () =
  Harness.Line_estate.make
    {
      Harness.Line_estate.default with
      Harness.Line_estate.n_groups = groups;
      frac_at_0 = 0.3;
      latency_penalty = Harness.Line_estate.banded_penalty 40.0;
      use_vpn;
    }

(* The groups of [p] whose primary site is over the latency budget and
   is not the fastest site the group may use. *)
let off_budget asis ~budget_ms (p : Placement.t) =
  let latency i j = Cost_model.avg_latency_ms asis ~group:i asis.Asis.targets.(j) in
  List.filter
    (fun i ->
      let j = p.Placement.primary.(i) in
      let fastest = ref infinity in
      Array.iteri
        (fun k _ ->
          if App_group.allowed asis.Asis.groups.(i) k then
            fastest := Float.min !fastest (latency i k))
        asis.Asis.targets;
      latency i j > budget_ms && latency i j > !fastest)
    (List.init (Asis.num_groups asis) Fun.id)

(* A seed for [Datasets.Synth] or [synthetic], uniform over [0..hi]:
   printed but not shrunk, since a nearby seed is no smaller an estate. *)
let seed_arb hi =
  Check.arb
    ~pp:(fun ppf seed -> Format.fprintf ppf "seed %d" seed)
    (Check.Gen.int_range 0 hi)

let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* A validator's problem list as a property verdict. *)
let no_problems = function
  | [] -> Ok ()
  | problems -> Error (String.concat "; " problems)

(* The suite and index of the alcotest case now running: the runner's
   command line names a case by them ([test <suite> <index>]), so the
   replay line of a failing property needs them.  [locate] stamps them
   on every case of the runner's suite list. *)
let running = ref None

let locate suites =
  List.map
    (fun (suite, cases) ->
      ( suite,
        List.mapi
          (fun index (name, speed, run) ->
            ( name,
              speed,
              fun x ->
                running := Some (suite, index);
                run x ))
          cases ))
    suites

(* A [Check] property as an alcotest case: its full count at
   [Check.default_seed ()], which is [CHECK_SEED] or else a fixed seed,
   so two runs of one tree test the same cases.  A failure fails the
   case with the counterexample and the command that replays it. *)
let property prop : unit Alcotest.test_case =
  ( Check.prop_name prop,
    `Slow,
    fun () ->
      match (Check.run_one prop).Check.failure with
      | None -> ()
      | Some f ->
          let case =
            match !running with
            | Some (suite, index) -> Printf.sprintf " -- test %s %d" suite index
            | None -> ""
          in
          Alcotest.failf
            "%a@\nreproduce: CHECK_SEED=%d dune exec test/main.exe%s"
            Check.pp_failure f f.Check.seed case )
