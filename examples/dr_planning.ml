(* Integrated consolidation + disaster recovery (paper §IV): every
   application group gets a primary and a secondary site; backup servers
   are shared across groups because only one site fails at a time.

   Run with:  dune exec examples/dr_planning.exe *)

open Etransform

let () =
  let asis = Datasets.Florida.asis () in
  Fmt.pr "%a@.@." Asis.pp_summary asis;

  (* The strawman the paper compares against: keep the estate as-is and
     bolt on one giant backup site. *)
  let strawman = Evaluate.asis_with_basic_dr asis in
  Fmt.pr "as-is + bolt-on DR:  %a@." Evaluate.pp_summary strawman;

  let outcome =
    Dr_planner.plan
      ~options:
        { Dr_planner.default_options with Dr_planner.economies_of_scale = true }
      asis
  in
  Fmt.pr "integrated DR plan:  %a@.@." Evaluate.pp_summary outcome.Solver.summary;

  let s = outcome.Solver.summary in
  Fmt.pr "backup pools (shared, single-failure):@.";
  Array.iteri
    (fun b pool ->
      if pool > 0.0 then
        Fmt.pr "  %-28s %4.0f backup servers@."
          asis.Asis.targets.(b).Data_center.name pool)
    s.Evaluate.backups;
  (* Without sharing, every server would need a backup of its own. *)
  let shared = Array.fold_left ( +. ) 0.0 s.Evaluate.backups in
  Fmt.pr "@.sharing buys %.0f backup servers instead of %d dedicated ones@."
    shared (Asis.total_servers asis);
  let saved =
    100.0
    *. (1.0 -. Evaluate.total s.Evaluate.cost /. Evaluate.total strawman.Evaluate.cost)
  in
  Fmt.pr "integrated plan is %.0f%% cheaper than the bolt-on strawman@." saved
