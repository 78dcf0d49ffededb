(* From plan to program: schedule the move waves that take the estate from
   its as-is state to the to-be plan, with a bounded move rate, and watch
   the monthly bill fall as legacy sites empty.

   Run with:  dune exec examples/migration_schedule.exe *)

open Etransform

let () =
  let asis = Datasets.Enterprise1.asis ~scale:0.5 () in
  Fmt.pr "%a@.@." Asis.pp_summary asis;

  let plan = (Solver.consolidate asis).Solver.placement in
  let schedule = Migration.plan ~servers_per_wave:60 asis plan in

  Fmt.pr "migration in %d waves (max 60 servers per wave):@."
    (List.length schedule.Migration.waves);
  List.iteri
    (fun k w ->
      Fmt.pr "  wave %2d: %2d groups, %3d servers -> monthly bill %s@." (k + 1)
        (List.length w.Migration.moves)
        w.Migration.servers_moved
        (Report.money schedule.Migration.cost_timeline.(k + 1)))
    schedule.Migration.waves;

  let t = schedule.Migration.cost_timeline in
  Fmt.pr "@.monthly bill: %s before, %s after — and capacity to negotiate:@."
    (Report.money t.(0))
    (Report.money t.(Array.length t - 1));

  (* Which target sites would justify buying more capacity? *)
  List.iter
    (fun (j, price) ->
      Fmt.pr "  one extra server slot at %-28s is worth %s/month@."
        asis.Asis.targets.(j).Data_center.name
        (Report.money (Float.abs price)))
    (Insights.most_constrained asis)
