let () =
  Alcotest.run "etransform"
  @@ Fixtures.locate
       [
         ("simplex", Test_simplex.suite);
         ("milp", Test_milp.suite);
         ("branching", Test_branching.suite);
         (* Lp.Frontier, registered under the name its tests carried when
            it was the work-stealing deque. *)
         ("wsched", Test_frontier.suite);
         ("lp-format", Test_lp_format.suite);
         ("piecewise", Test_piecewise.suite);
         ("geo", Test_geo.suite);
         ("datasets", Test_datasets.suite);
         ("domain", Test_domain.suite);
         ("evaluate", Test_evaluate.suite);
         ("baselines", Test_baselines.suite);
         ("lp-builder", Test_lp_builder.suite);
         ("solver", Test_solver.suite);
         ("dr", Test_dr.suite);
         ("iterate", Test_iterate.suite);
         ("split", Test_split.suite);
         ("report", Test_report.suite);
         ("harness", Test_harness.suite);
         ("migration", Test_migration.suite);
         ("service", Test_service.suite);
         ("scenario", Test_scenario.suite);
         ("server", Test_server.suite);
         ("cluster", Test_cluster.suite);
         ("check", Test_check.suite);
         ("http-edge", Test_http_edge.suite);
         ("metrics", Test_metrics.suite);
       ]
