open Etransform

type grid = {
  radius_km : float option list;
  max_concurrent : int list;
  warning_s : float option list;
  omega : float option list;
  max_latency_ms : float option list;
}

let empty_grid =
  {
    radius_km = [];
    max_concurrent = [];
    warning_s = [];
    omega = [];
    max_latency_ms = [];
  }

let max_points = 512

let axis xs base = if xs = [] then [ base ] else xs

let grid_points g (base : Job.t) =
  List.length (axis g.radius_km base.Job.scenario.Job.radius_km)
  * List.length
      (axis g.max_concurrent
         (Option.value base.Job.scenario.Job.max_concurrent ~default:1))
  * List.length (axis g.warning_s base.Job.scenario.Job.warning_s)
  * List.length (axis g.omega base.Job.omega)
  * List.length (axis g.max_latency_ms base.Job.scenario.Job.max_latency_ms)

(* ------------------------------------------------------------- parsing *)

let ( let* ) = Result.bind

(* Axis syntax: a JSON array mixing numbers and [null] ("no constraint"),
   e.g. ["radius_km":[null,50,400]].  A missing axis keeps the base
   job's value. *)
let float_axis sj key =
  match Json.member key sj with
  | None -> Ok []
  | Some (Json.List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.Null :: rest -> go (None :: acc) rest
        | (Json.Num f) :: rest -> go (Some f :: acc) rest
        | _ ->
            Error
              (Printf.sprintf "grid axis %S must list numbers or null" key)
      in
      go [] items
  | Some _ -> Error (Printf.sprintf "grid axis %S must be an array" key)

let int_axis sj key =
  match Json.member key sj with
  | None -> Ok []
  | Some (Json.List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (Json.Num f) :: rest when Float.is_integer f ->
            go (int_of_float f :: acc) rest
        | _ -> Error (Printf.sprintf "grid axis %S must list integers" key)
      in
      go [] items
  | Some _ -> Error (Printf.sprintf "grid axis %S must be an array" key)

let grid_of_json j =
  match Json.member "grid" j with
  | None -> Ok empty_grid
  | Some sj ->
      let* radius_km = float_axis sj "radius_km" in
      let* max_concurrent = int_axis sj "max_concurrent" in
      let* warning_s = float_axis sj "warning_s" in
      let* omega = float_axis sj "omega" in
      let* max_latency_ms = float_axis sj "max_latency_ms" in
      Ok { radius_km; max_concurrent; warning_s; omega; max_latency_ms }

let request_of_json ?resolve j =
  let* job = Batch.job_of_json ?resolve j in
  let* grid = grid_of_json j in
  let n = grid_points grid job in
  if n > max_points then
    Error (Printf.sprintf "grid expands to %d points (max %d)" n max_points)
  else Ok (job, grid)

(* ----------------------------------------------------------- expansion *)

let fl_tag = function None -> "-" | Some f -> Printf.sprintf "%g" f

(* Cartesian product in one fixed axis order, so a given (job, grid) pair
   always yields the same point sequence.  [max_concurrent = 1] and
   friends normalize back to "absent" so a sweep point that happens to
   coincide with the plain model shares the plain job's fingerprint —
   the cache serves it to /solve clients and vice versa. *)
let expand (base : Job.t) g =
  let scen = base.Job.scenario in
  let radii = axis g.radius_km scen.Job.radius_km in
  let concs = axis g.max_concurrent (Option.value scen.Job.max_concurrent ~default:1) in
  let warns = axis g.warning_s scen.Job.warning_s in
  let omegas = axis g.omega base.Job.omega in
  let lats = axis g.max_latency_ms scen.Job.max_latency_ms in
  List.concat_map
    (fun r ->
      List.concat_map
        (fun c ->
          List.concat_map
            (fun w ->
              List.concat_map
                (fun om ->
                  List.map
                    (fun l ->
                      let tag =
                        Printf.sprintf "r=%s;c=%d;w=%s;om=%s;l=%s" (fl_tag r)
                          c (fl_tag w) (fl_tag om) (fl_tag l)
                      in
                      let scenario =
                        {
                          scen with
                          Job.radius_km = r;
                          max_concurrent = (if c <= 1 then None else Some c);
                          warning_s = w;
                          max_latency_ms = l;
                        }
                      in
                      let id =
                        if base.Job.id = "" then tag
                        else base.Job.id ^ ":" ^ tag
                      in
                      (tag, { base with Job.id; omega = om; scenario }))
                    lats)
                omegas)
            warns)
        concs)
    radii

(* ------------------------------------------------------------- scoring *)

(* Every point is scored under ONE spec — the strictest the grid reaches
   (largest radius, highest concurrency, tightest warning window) — so
   resilience values are comparable across the sweep and the frontier
   actually trades cost against robustness rather than against the
   yardstick. *)
let scoring_spec (base : Job.t) g =
  let scen = base.Job.scenario in
  let radii = axis g.radius_km scen.Job.radius_km in
  let concs = axis g.max_concurrent (Option.value scen.Job.max_concurrent ~default:1) in
  let warns = axis g.warning_s scen.Job.warning_s in
  let max_opt a b =
    match (a, b) with
    | Some a, Some b -> Some (Float.max a b)
    | None, x | x, None -> x
  in
  let min_opt a b =
    match (a, b) with
    | Some a, Some b -> Some (Float.min a b)
    | None, x | x, None -> x
  in
  {
    Scenario.Failure.radius_km = List.fold_left max_opt None radii;
    max_concurrent = List.fold_left max 1 concs;
    warning_s = List.fold_left min_opt None warns;
    link_mb_s =
      Option.value scen.Job.link_mb_s
        ~default:Scenario.Failure.default.Scenario.Failure.link_mb_s;
  }

type ctx = {
  base : Job.t;
  grid : grid;
  spec : Scenario.Failure.spec;
  estate : Asis.t Lazy.t;
  sites : Geo.Location.t array Lazy.t;
}

let ctx base grid =
  let estate = lazy (Job.build_estate base) in
  {
    base;
    grid;
    spec = scoring_spec base grid;
    estate;
    sites = lazy (Scenario.Failure.sites (Lazy.force estate));
  }

type point = {
  tag : string;
  result : Pool.result;
  cost : float option;
  resilience : float option;
}

let point ctx ~tag (r : Pool.result) =
  let cost, resilience =
    match r.Pool.outcome with
    | None -> (None, None)
    | Some o ->
        ( Some (Evaluate.total o.Solver.summary.Evaluate.cost),
          Some
            (Scenario.Failure.resilience ~spec:ctx.spec (Lazy.force ctx.estate)
               (Lazy.force ctx.sites) o.Solver.placement) )
  in
  { tag; result = r; cost; resilience }

(* ----------------------------------------------------------- rendering *)

let point_line p =
  Json.to_string
    (Json.Obj
       (Batch.result_fields p.result
       @ ("tag", Json.Str p.tag)
         :: Option.to_list
              (Option.map (fun r -> ("resilience", Json.Num r)) p.resilience)))

type summary = {
  points : int;
  cache_hits : int;
  frontier : Scenario.Pareto.point list;
  wall_s : float;
}

let summarize ?(wall_s = 0.0) pts =
  let frontier =
    Scenario.Pareto.frontier
      (List.filter_map
         (fun p ->
           match (p.cost, p.resilience) with
           | Some cost, Some resilience ->
               Some { Scenario.Pareto.cost; resilience; tag = p.tag }
           | _ -> None)
         pts)
  in
  {
    points = List.length pts;
    cache_hits =
      List.length (List.filter (fun p -> p.result.Pool.cache_hit) pts);
    frontier;
    wall_s;
  }

let frontier_line s =
  Json.to_string
    (Json.Obj
       [
         ( "frontier",
           Json.List
             (List.map
                (fun (p : Scenario.Pareto.point) ->
                  Json.Obj
                    [
                      ("tag", Json.Str p.Scenario.Pareto.tag);
                      ("cost", Json.Num p.Scenario.Pareto.cost);
                      ("resilience", Json.Num p.Scenario.Pareto.resilience);
                    ])
                s.frontier) );
         ("points", Json.Num (float_of_int s.points));
         ("cache_hits", Json.Num (float_of_int s.cache_hits));
         ("wall_s", Json.Num s.wall_s);
       ])

let emit_trace pool s =
  Trace.emit (Pool.trace pool)
    [
      ("event", Json.Str "sweep");
      ("points", Json.Num (float_of_int s.points));
      ("cache_hits", Json.Num (float_of_int s.cache_hits));
      ("frontier", Json.Num (float_of_int (List.length s.frontier)));
      ("wall_s", Json.Num s.wall_s);
    ]

(* ----------------------------------------------------------------- run *)

let run ?driver pool base grid ~f =
  let t0 = Lp.Clock.now () in
  let c = ctx base grid in
  let acc = ref [] in
  Pool.stream ?driver pool
    ~read:
      (Seq.to_dispenser
         (Seq.map (fun (tag, job) -> (tag, Ok job))
            (List.to_seq (expand base grid))))
    ~emit:(fun tag ->
      Result.iter (fun r ->
          let p = point c ~tag r in
          acc := p :: !acc;
          f p));
  let s = summarize ~wall_s:(Lp.Clock.now () -. t0) (List.rev !acc) in
  emit_trace pool s;
  s
