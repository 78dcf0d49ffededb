(* Standalone optimization engine: solve a CPLEX-format .lp file and write
   a solution file — the role CPLEX plays in the paper's Fig. 5.

   Usage: lp_solve_cli FILE.lp [-o FILE.sol] [--relax] [--nodes N]
          [--time S] [--mps FILE.mps]

   The model path - reads the .lp from stdin, so trace replays and shell
   pipelines (e.g. the planning service's artifacts) need no temp files. *)

open Cmdliner

let read_stdin () =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf stdin 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

let solve_file path output relax nodes time mps =
  let model =
    try
      if path = "-" then Lp.Lp_parse.model_of_string ~name:"stdin" (read_stdin ())
      else Lp.Lp_parse.read_model_file path
    with
    | Lp.Lp_parse.Parse_error msg ->
        Printf.eprintf "parse error: %s\n" msg;
        exit 1
    | Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
  in
  Printf.printf "%s\n" (Fmt.str "%a" Lp.Model.pp_stats model);
  (match Lp.Model.validate model with
  | [] -> ()
  | issues ->
      List.iter (Printf.eprintf "warning: %s\n") issues);
  (match mps with
  | None -> ()
  | Some mps_path ->
      Lp.Mps_format.write_model_file mps_path model;
      Printf.printf "wrote %s\n" mps_path);
  let status, obj, x =
    if relax then begin
      let r = Lp.Milp.relax model in
      (* Without an optimum the simplex iterate is a phase-1 or partial
         point; report no point, as the MILP path does. *)
      if Lp.Status.is_ok r.Lp.Simplex.status then
        (r.Lp.Simplex.status, r.Lp.Simplex.obj_value, r.Lp.Simplex.x)
      else (r.Lp.Simplex.status, nan, [||])
    end
    else begin
      let options =
        { Lp.Milp.default_options with
          Lp.Milp.node_limit = nodes; time_limit = time }
      in
      let r = Lp.Milp.solve ~options model in
      (r.Lp.Milp.status, r.Lp.Milp.obj, r.Lp.Milp.x)
    end
  in
  Printf.printf "status: %s\n" (Lp.Status.to_string status);
  if Array.length x > 0 then Printf.printf "objective: %.10g\n" obj;
  let text = Lp.Lp_format.solution_to_string model ~status ~obj x in
  match output with
  | None -> print_string text
  | Some out ->
      let oc = open_out out in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" out;
      if not (Lp.Status.is_ok status) then exit 3

let path_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"FILE.lp" ~doc:"Model file; - reads stdin.")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE.sol"
         ~doc:"Write the solution file here instead of stdout.")

let relax_arg =
  Arg.(value & flag & info [ "relax" ] ~doc:"Solve the LP relaxation only.")

let nodes_arg =
  Arg.(value & opt int 5000 & info [ "nodes" ] ~doc:"Branch-and-bound node budget.")

let time_arg =
  Arg.(
    value & opt float infinity
    & info [ "time" ] ~doc:"Wall-clock budget in seconds.")

let mps_arg =
  Arg.(value & opt (some string) None & info [ "mps" ] ~docv:"FILE.mps"
         ~doc:"Also export the model in MPS format.")

let cmd =
  let doc = "solve a CPLEX-format LP/MILP file" in
  Cmd.v
    (Cmd.info "lp_solve" ~doc)
    Term.(const solve_file $ path_arg $ output_arg $ relax_arg $ nodes_arg
          $ time_arg $ mps_arg)

let () = exit (Cmd.eval cmd)
