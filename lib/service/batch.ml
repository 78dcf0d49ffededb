open Etransform

type resolver = Json.t -> (string * (unit -> Asis.t)) option

let ( let* ) = Result.bind

(* Member decoders: a type is a converter plus its name for errors;
   [what] names the object in them (["milp field"], ...). *)
let number = (Json.to_float, "a number")
let integer = (Json.to_int, "an integer")
let boolean = (Json.to_bool, "a boolean")
let text = (Json.to_str, "a string")

let typed ~what (conv, ty) key v =
  match conv v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s %S must be %s" what key ty)

(* Absent: [default]; present, even as null, it must convert. *)
let field ty j key default =
  match Json.member key j with
  | None -> Ok default
  | Some v -> typed ~what:"field" ty key v

(* Absent or null: [None]. *)
let opt ?(what = "field") ty j key =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some v -> Result.map Option.some (typed ~what ty key v)

let estate_of_json ?resolve j =
  match Json.member "estate" j with
  | None -> Error "missing \"estate\""
  | Some ej -> (
      match Option.bind (Json.member "kind" ej) Json.to_str with
      | Some "dataset" ->
          let* name = field text ej "name" "" in
          if name = "" then Error "dataset estate needs a \"name\""
          else
            let* scale = field number ej "scale" 1.0 in
            let* seed = field integer ej "seed" 42 in
            let* groups = field integer ej "groups" 50 in
            let* targets = field integer ej "targets" 6 in
            Ok (Job.Dataset { name; scale; seed; groups; targets })
      | Some kind -> (
          match resolve with
          | None ->
              Error (Printf.sprintf "no resolver for estate kind %S" kind)
          | Some resolve -> (
              match resolve ej with
              | Some (key, build) -> Ok (Job.Inline { key; build })
              | None ->
                  Error (Printf.sprintf "unresolved estate kind %S" kind)))
      | None -> Error "estate needs a string \"kind\"")

let milp_of_json j =
  match Json.member "milp" j with
  | None -> Ok Job.no_overrides
  | Some mj ->
      let opt ty key = opt ~what:"milp field" ty mj key in
      let* node_limit = opt integer "nodes" in
      let* time_limit = opt number "time" in
      let* gap_tol = opt number "gap" in
      Ok { Job.node_limit; time_limit; gap_tol }

let scenario_of_json j =
  match Json.member "scenario" j with
  | None -> Ok Job.no_scenario
  | Some sj ->
      let opt ty key = opt ~what:"scenario field" ty sj key in
      let* radius_km = opt number "radius_km" in
      let* max_concurrent = opt integer "max_concurrent" in
      let* warning_s = opt number "warning_s" in
      let* link_mb_s = opt number "link_mb_s" in
      let* max_latency_ms = opt number "max_latency_ms" in
      Ok
        { Job.radius_km; max_concurrent; warning_s; link_mb_s; max_latency_ms }

let job_of_json ?resolve j =
  match j with
  | Json.Obj _ ->
      let* estate = estate_of_json ?resolve j in
      let* id = field text j "id" "" in
      let* dr = field boolean j "dr" false in
      let* economies_of_scale = field boolean j "eos" false in
      let* fixed_charges = field boolean j "fixed_charges" false in
      let* omega = opt number j "omega" in
      let* reserve = opt number j "reserve" in
      let* dr_server_cost = opt number j "dr_server_cost" in
      let* milp = milp_of_json j in
      let* scenario = scenario_of_json j in
      let* deadline_s = opt number j "deadline_s" in
      let* degrade = field boolean j "degrade" true in
      if dr && fixed_charges then
        Error "fixed_charges: a DR job takes no fixed charges"
      else
        Ok
          {
            Job.id;
            estate;
            dr;
            economies_of_scale;
            fixed_charges;
            omega;
            reserve;
            dr_server_cost;
            milp;
            scenario;
            deadline_s;
            degrade;
          }
  | _ -> Error "job spec must be a JSON object"

let job_of_line ?resolve line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok j -> job_of_json ?resolve j

let result_fields (r : Pool.result) =
  let details =
    match r.Pool.outcome with
    | None -> []
    | Some o ->
        let s = o.Solver.summary in
        [
          ("total", Json.Num (Evaluate.total s.Evaluate.cost));
          ("operational", Json.Num (Evaluate.operational s.Evaluate.cost));
          ("dcs_used", Json.Num (float_of_int s.Evaluate.dcs_used));
          ("violations", Json.Num (float_of_int s.Evaluate.violations));
          ("status", Json.Str (Lp.Status.to_string o.Solver.milp_status));
          ("gap", Json.Num o.Solver.milp_gap);
          ("nodes", Json.Num (float_of_int o.Solver.nodes));
          ( "placement",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun j -> Json.Num (float_of_int j))
                    o.Solver.placement.Placement.primary)) );
        ]
  in
  let reason =
    match r.Pool.reason with None -> [] | Some m -> [ ("reason", Json.Str m) ]
  in
  ("id", Json.Str r.Pool.job.Job.id)
  :: ("fp", Json.Str r.Pool.fingerprint)
  :: ( "code",
       Json.Str
         (match r.Pool.code with
         | Pool.Solved -> "ok"
         | Pool.Degraded -> "degraded"
         | Pool.Failed -> "failed") )
  :: ("cache", Json.Str (if r.Pool.cache_hit then "hit" else "miss"))
  :: ("queue_s", Json.Num r.Pool.queue_s)
  :: ("solve_s", Json.Num r.Pool.solve_s)
  :: (details @ reason)

let result_to_line r = Json.to_string (Json.Obj (result_fields r))

let invalid_line msg =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str "");
         ("code", Json.Str "invalid");
         ("reason", Json.Str msg);
       ])

(* Every kept input line takes one slot of the pool's in-order window,
   so parse failures cannot shift the one-line-in/one-line-out
   alignment. *)
let run_lines ?resolve ?driver pool ~read_line ~write =
  let ok = ref 0 and degraded = ref 0 and failed = ref 0 in
  let rec read () =
    match read_line () with
    | None -> None
    | Some line ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then read ()
        else Some ((), job_of_line ?resolve line)
  in
  Pool.stream ?driver pool ~read ~emit:(fun () out ->
      write
        (match out with
        | Error msg ->
            incr failed;
            invalid_line msg
        | Ok r ->
            incr
              (match r.Pool.code with
              | Pool.Solved -> ok
              | Pool.Degraded -> degraded
              | Pool.Failed -> failed);
            result_to_line r));
  (!ok, !degraded, !failed)

let run ?resolve pool ic oc =
  (* A failing read ends the input; it is reported as one last invalid
     line, after every result before it. *)
  let input_error = ref None in
  let read_line () =
    match input_line ic with
    | line -> Some line
    | exception End_of_file -> None
    | exception exn ->
        input_error := Some ("input error: " ^ Printexc.to_string exn);
        None
  in
  let write line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let ok, degraded, failed = run_lines ?resolve pool ~read_line ~write in
  match !input_error with
  | None -> (ok, degraded, failed)
  | Some msg ->
      write (invalid_line msg);
      (ok, degraded, failed + 1)
