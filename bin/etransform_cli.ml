(* The eTransform command line: plan consolidations (with or without DR)
   for the bundled case-study datasets or synthetic estates, export the LP
   artifacts of the Fig. 5 pipeline, and run the paper's experiments.

   Try:
     etransform_cli plan --dataset enterprise1
     etransform_cli plan --dataset florida --dr --workdir /tmp/florida
     etransform_cli plan --dataset synthetic --groups 60 --targets 8 --seed 7
     etransform_cli compare --dataset enterprise1
     etransform_cli experiment e3
     etransform_cli datasets *)

open Cmdliner
open Etransform

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let load_dataset name scale seed groups targets =
  match name with
  | "enterprise1" -> Datasets.Enterprise1.asis ~scale ()
  | "florida" -> Datasets.Florida.asis ~scale ()
  | "federal" -> Datasets.Federal.asis ~scale ()
  | "synthetic" ->
      Datasets.Synth.generate
        {
          Datasets.Synth.default with
          Datasets.Synth.seed;
          n_groups = groups;
          n_targets = targets;
          total_servers = groups * 8;
        }
  | other ->
      Printf.eprintf
        "unknown dataset %S (want enterprise1|florida|federal|synthetic)\n"
        other;
      exit 2

let builder_options eos fixed omega =
  {
    Lp_builder.default_options with
    Lp_builder.economies_of_scale = eos;
    fixed_charges = fixed;
    omega;
  }

(* plan: produce and print a to-be state. *)
let plan_cmd_run verbose dataset scale seed groups targets dr eos fixed omega
    workdir =
  setup_logs verbose;
  if dr && fixed then begin
    Printf.eprintf "--dr takes no --fixed-charges: the DR planner has no fixed charges\n";
    exit 2
  end;
  let asis = load_dataset dataset scale seed groups targets in
  Fmt.pr "%a@.@." Asis.pp_summary asis;
  let builder = builder_options eos fixed omega in
  let artifacts = Pipeline.run ~builder ~dr ?workdir asis in
  let o = artifacts.Pipeline.outcome in
  Fmt.pr "as-is: %a@." Evaluate.pp_summary (Evaluate.asis_state asis);
  Fmt.pr "to-be: %a@.@." Evaluate.pp_summary o.Solver.summary;
  let counts = Placement.servers_per_dc asis o.Solver.placement in
  let backups = o.Solver.summary.Evaluate.backups in
  Array.iteri
    (fun j n ->
      if n > 0 || backups.(j) > 0.0 then
        Fmt.pr "  %-30s %5d servers%s@."
          asis.Asis.targets.(j).Data_center.name n
          (if backups.(j) > 0.0 then
             Printf.sprintf " + %.0f backups" backups.(j)
           else ""))
    counts;
  (match artifacts.Pipeline.lp_file with
  | Some f -> Fmt.pr "@.LP file:       %s@." f
  | None -> ());
  (match artifacts.Pipeline.solution_file with
  | Some f -> Fmt.pr "solution file: %s@." f
  | None -> ());
  Fmt.pr "solver: %s, gap %.1f%%@."
    (Lp.Status.to_string o.Solver.milp_status)
    (100.0 *. o.Solver.milp_gap)

(* compare: the paper's algorithm comparison on one dataset. *)
let compare_cmd_run verbose dataset scale seed groups targets dr =
  setup_logs verbose;
  let asis = load_dataset dataset scale seed groups targets in
  Fmt.pr "%a@.@." Asis.pp_summary asis;
  let entries =
    if dr then
      [
        ("AS-IS+DR", Evaluate.asis_with_basic_dr asis);
        ("MANUAL", Evaluate.plan asis (Manual.plan_dr asis));
        ("GREEDY", Evaluate.plan asis (Greedy.plan_dr asis));
        ( "ETRANSFORM",
          (Dr_planner.plan
             ~options:
               { Dr_planner.default_options with
                 Dr_planner.economies_of_scale = true }
             asis)
            .Solver.summary );
      ]
    else
      [
        ("AS-IS", Evaluate.asis_state asis);
        ("MANUAL", Evaluate.plan asis (Manual.plan asis));
        ("GREEDY", Evaluate.plan asis (Greedy.plan asis));
        ( "ETRANSFORM",
          (Solver.consolidate ~builder:(builder_options true true None) asis)
            .Solver.summary );
      ]
  in
  let asis_total = Evaluate.total (snd (List.hd entries)).Evaluate.cost in
  print_string
    (Report.table ~header:Report.comparison_header
       (Report.comparison_rows ~asis_total entries))

(* experiment: the benchmark harness from the CLI. *)
let experiment_cmd_run verbose which =
  setup_logs verbose;
  match which with
  | "e0" -> Harness.Studies.e0_datasets ()
  | "e1" -> ignore (Harness.Studies.e1_consolidation ())
  | "e2" -> ignore (Harness.Studies.e2_dr ())
  | "e3" -> ignore (Harness.Studies.e3_latency_penalty ())
  | "e4" -> ignore (Harness.Studies.e4_dr_server_cost ())
  | "e5" -> ignore (Harness.Studies.e5_space_wan_tradeoff ())
  | "e6" -> ignore (Harness.Studies.e6_placement_growth ())
  | "e7" -> ignore (Harness.Studies.e7_scenario_frontier ())
  | "all" -> Harness.Studies.all ()
  | other ->
      Printf.eprintf "unknown experiment %S\n" other;
      exit 2

let datasets_cmd_run verbose =
  setup_logs verbose;
  Harness.Studies.e0_datasets ()

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let broken_pipe = function
  | Sys_error msg -> contains ~affix:"roken pipe" msg
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
  | _ -> false

let trace_sink trace_file =
  match trace_file with
  | None -> (Service.Trace.null, fun () -> ())
  | Some path ->
      let oc = open_out path in
      (Service.Trace.to_channel oc, fun () -> close_out oc)

(* batch: the planning service's NDJSON front-end.  One job spec per input
   line, one result line per job on stdout, in input order. *)
let batch_cmd_run verbose input workers queue cache_size trace_file =
  setup_logs verbose;
  let workers = Service.Pool.clamp_workers ~what:"etransform batch" workers in
  (* `etransform batch ... | head` must end the stream cleanly when the
     consumer hangs up: ignore SIGPIPE so the write fails with EPIPE
     (surfaced as Sys_error "Broken pipe"), which Batch.run re-raises
     after winding the stream down — treated below as a normal end. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace, close_trace = trace_sink trace_file in
  let ic, close_in_ =
    if input = "-" then (stdin, fun () -> ())
    else
      let ic = open_in input in
      (ic, fun () -> close_in ic)
  in
  let _ok, _degraded, failed =
    Fun.protect
      ~finally:(fun () ->
        close_in_ ();
        close_trace ())
      (fun () ->
        try
          Service.Pool.with_pool ~workers ~queue_capacity:queue
            ~cache_capacity:cache_size ~trace (fun pool ->
              Service.Batch.run ~resolve:Harness.Line_jobs.resolve pool ic
                stdout)
        with exn when broken_pipe exn ->
          (* Downstream closed the pipe (e.g. `| head`): the stream ended
             where the consumer stopped listening — that is success. *)
          (0, 0, 0))
  in
  if failed > 0 then exit 1

(* sweep: fan one request across a parameter grid, streaming one NDJSON
   line per grid point (in grid order, as each completes) and a terminal
   cost-vs-resilience Pareto frontier line. *)
let sweep_cmd_run verbose input workers queue cache_size trace_file =
  setup_logs verbose;
  let workers = Service.Pool.clamp_workers ~what:"etransform sweep" workers in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let text =
    if input = "-" then In_channel.input_all stdin
    else In_channel.with_open_text input In_channel.input_all
  in
  let request =
    match Service.Json.parse text with
    | Error msg -> Error ("body is not JSON: " ^ msg)
    | Ok j ->
        Service.Sweep.request_of_json ~resolve:Harness.Line_jobs.resolve j
  in
  match request with
  | Error msg ->
      Printf.eprintf "invalid sweep request: %s\n" msg;
      exit 2
  | Ok (base, grid) ->
      let trace, close_trace = trace_sink trace_file in
      let failed = ref 0 in
      Fun.protect ~finally:close_trace (fun () ->
          try
            Service.Pool.with_pool ~workers ~queue_capacity:queue
              ~cache_capacity:cache_size ~trace (fun pool ->
                let s =
                  Service.Sweep.run pool base grid ~f:(fun p ->
                      (match p.Service.Sweep.result.Service.Pool.code with
                      | Service.Pool.Failed -> incr failed
                      | _ -> ());
                      print_string (Service.Sweep.point_line p);
                      print_newline ();
                      flush stdout)
                in
                print_string (Service.Sweep.frontier_line s);
                print_newline ();
                flush stdout)
          with exn when broken_pipe exn -> ());
      if !failed > 0 then exit 1

(* Shared arguments. *)
let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Chatty logs.")

let dataset =
  Arg.(value & opt string "enterprise1"
       & info [ "dataset" ] ~docv:"NAME"
           ~doc:"enterprise1, florida, federal or synthetic.")

let scale =
  Arg.(value & opt float 1.0
       & info [ "scale" ] ~doc:"Shrink factor for the named dataset.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Synthetic seed.")

let groups =
  Arg.(value & opt int 50 & info [ "groups" ] ~doc:"Synthetic app groups.")

let targets =
  Arg.(value & opt int 6 & info [ "targets" ] ~doc:"Synthetic target DCs.")

let dr = Arg.(value & flag & info [ "dr" ] ~doc:"Plan disaster recovery too.")

let eos =
  Arg.(value & opt bool true
       & info [ "economies-of-scale" ] ~doc:"Price volume discounts in the LP.")

let fixed =
  Arg.(value & opt bool true
       & info [ "fixed-charges" ] ~doc:"Price site opening charges in the LP.")

let omega =
  Arg.(value & opt (some float) None
       & info [ "omega" ] ~doc:"Business-impact spread (fraction per site).")

let workdir =
  Arg.(value & opt (some string) None
       & info [ "workdir" ] ~docv:"DIR"
           ~doc:"Materialize the LP file and solution file here (Fig. 5).")

let which_exp =
  Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT")

let batch_input =
  Arg.(value & pos 0 string "-"
       & info [] ~docv:"JOBS.ndjson"
           ~doc:"Newline-delimited job specs; - reads stdin.")

let batch_workers =
  Arg.(value & opt int 2
       & info [ "workers" ]
           ~doc:"Solver workers, on as many domains: worker 0 shares \
                 the main domain, and cached plans never reach a worker \
                 (0 = solve inline).")

let batch_queue =
  Arg.(value & opt int 64
       & info [ "queue" ] ~doc:"Bounded job-queue capacity.")

let batch_cache =
  Arg.(value & opt int 256
       & info [ "cache" ] ~doc:"Plan-cache capacity (0 disables).")

let batch_trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write JSONL per-job trace spans here.")

let plan_cmd =
  Cmd.v
    (Cmd.info "plan" ~doc:"compute a consolidation (and optionally DR) plan")
    Term.(const plan_cmd_run $ verbose $ dataset $ scale $ seed $ groups
          $ targets $ dr $ eos $ fixed $ omega $ workdir)

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"compare as-is / manual / greedy / eTransform")
    Term.(const compare_cmd_run $ verbose $ dataset $ scale $ seed $ groups
          $ targets $ dr)

let experiment_cmd =
  Cmd.v
    (Cmd.info "experiment" ~doc:"run a paper experiment (e0..e7, all)")
    Term.(const experiment_cmd_run $ verbose $ which_exp)

let datasets_cmd =
  Cmd.v
    (Cmd.info "datasets" ~doc:"summarize the bundled case-study datasets")
    Term.(const datasets_cmd_run $ verbose)

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:"serve a stream of NDJSON planning jobs through the worker pool")
    Term.(const batch_cmd_run $ verbose $ batch_input $ batch_workers
          $ batch_queue $ batch_cache $ batch_trace)

let sweep_input =
  Arg.(value & pos 0 string "-"
       & info [] ~docv:"REQUEST.json"
           ~doc:"A job spec with a \"grid\" member; - reads stdin.")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"stream a parameter sweep and its cost-vs-resilience frontier")
    Term.(const sweep_cmd_run $ verbose $ sweep_input $ batch_workers
          $ batch_queue $ batch_cache $ batch_trace)

let () =
  let doc = "enterprise data-center transformation and consolidation planner" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "etransform" ~doc ~version:"1.0.0")
          [
            plan_cmd;
            compare_cmd;
            experiment_cmd;
            datasets_cmd;
            batch_cmd;
            sweep_cmd;
          ]))
