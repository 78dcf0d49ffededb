type artifacts = {
  outcome : Solver.outcome;
  lp_file : string option;
  solution_file : string option;
}

let run ?(builder = Lp_builder.default_options) ?(dr = false) ?workdir asis =
  let outcome =
    if dr then begin
      if builder.Lp_builder.pins <> [] || builder.Lp_builder.forbids <> [] then
        invalid_arg "Pipeline.run: the DR planner takes no pins or forbids";
      if builder.Lp_builder.fixed_charges then
        invalid_arg "Pipeline.run: the DR planner takes no fixed charges";
      Dr_planner.plan
        ~options:
          {
            Dr_planner.default_options with
            Dr_planner.omega = builder.Lp_builder.omega;
            economies_of_scale = builder.Lp_builder.economies_of_scale;
            max_latency_ms = builder.Lp_builder.max_latency_ms;
          }
        asis
    end
    else Solver.consolidate ~builder asis
  in
  match workdir with
  | None -> { outcome; lp_file = None; solution_file = None }
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let built =
        if dr then (Dr_builder.build ~options:builder asis).Dr_builder.base
        else Lp_builder.build ~options:builder asis
      in
      let lp_file = Filename.concat dir (asis.Asis.name ^ ".lp") in
      Lp.Lp_format.write_model_file lp_file built.Lp_builder.model;
      let solution_file = Filename.concat dir (asis.Asis.name ^ ".sol") in
      let oc = open_out solution_file in
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "\\ to-be state for %s\n" asis.Asis.name;
      Format.fprintf ppf "status: %s\n"
        (Lp.Status.to_string outcome.Solver.milp_status);
      Format.fprintf ppf "total_monthly_cost: %.2f\n"
        (Evaluate.total outcome.Solver.summary.Evaluate.cost);
      Array.iteri
        (fun i j ->
          Format.fprintf ppf "%s -> %s\n"
            asis.Asis.groups.(i).App_group.name
            asis.Asis.targets.(j).Data_center.name)
        outcome.Solver.placement.Placement.primary;
      (match outcome.Solver.placement.Placement.secondary with
      | None -> ()
      | Some sec ->
          Array.iteri
            (fun i b ->
              Format.fprintf ppf "%s ~> %s (backup)\n"
                asis.Asis.groups.(i).App_group.name
                asis.Asis.targets.(b).Data_center.name)
            sec);
      Format.pp_print_flush ppf ();
      close_out oc;
      { outcome; lp_file = Some lp_file; solution_file = Some solution_file }
