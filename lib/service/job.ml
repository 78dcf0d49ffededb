type estate =
  | Dataset of {
      name : string;
      scale : float;
      seed : int;
      groups : int;
      targets : int;
    }
  | Inline of { key : string; build : unit -> Etransform.Asis.t }

type milp_overrides = {
  node_limit : int option;
  time_limit : float option;
  gap_tol : float option;
}

let no_overrides =
  {
    node_limit = None;
    time_limit = None;
    gap_tol = None;
  }

type scenario_overrides = {
  radius_km : float option;
  max_concurrent : int option;
  warning_s : float option;
  link_mb_s : float option;
  max_latency_ms : float option;
}

let no_scenario =
  {
    radius_km = None;
    max_concurrent = None;
    warning_s = None;
    link_mb_s = None;
    max_latency_ms = None;
  }

type t = {
  id : string;
  estate : estate;
  dr : bool;
  economies_of_scale : bool;
  fixed_charges : bool;
  omega : float option;
  reserve : float option;
  dr_server_cost : float option;
  milp : milp_overrides;
  scenario : scenario_overrides;
  deadline_s : float option;
  degrade : bool;
}

let v ?(id = "") ?(dr = false) ?(economies_of_scale = false)
    ?(fixed_charges = false) ?omega ?reserve ?dr_server_cost
    ?(milp = no_overrides) ?(scenario = no_scenario) ?deadline_s
    ?(degrade = true) estate =
  if dr && fixed_charges then
    invalid_arg "Job.v: a DR job takes no fixed charges";
  {
    id;
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

(* Hex floats round-trip exactly, so two jobs fingerprint equal iff their
   numeric fields are bit-identical.  [Printf.sprintf "%h"] calls this
   primitive with precision -6 (as many digits as needed) and sign '-'
   (none for positive numbers); calling it directly skips the format
   interpreter. *)
external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

let fl f = hexstring_of_float f (-6) '-'

let opt f = function None -> "~" | Some v -> f v

let estate_key = function
  | Dataset { name; scale; seed; groups; targets } ->
      Printf.sprintf "dataset:%s:%s:%d:%d:%d" name (fl scale) seed groups
        targets
  | Inline { key; _ } -> "inline:" ^ key

(* One fixed field order; delivery-only fields (id, deadline_s, degrade)
   are deliberately absent so retries and tighter deadlines still hit.
   Scenario fields join the serialization only when set at all.  The
   leading tag names the solver generation: bump it whenever the same job
   can plan differently, so a disk store or peer filled by an older solver
   never serves its plans as this one's. *)
let canonical job =
  let base =
    [
      "v4";
      estate_key job.estate;
      (if job.dr then "dr" else "nodr");
      (if job.economies_of_scale then "eos" else "noeos");
      (if job.fixed_charges then "fixed" else "nofixed");
      "omega=" ^ opt fl job.omega;
      "reserve=" ^ opt fl job.reserve;
      "zeta=" ^ opt fl job.dr_server_cost;
      "nodes=" ^ opt string_of_int job.milp.node_limit;
      "time=" ^ opt fl job.milp.time_limit;
      "gap=" ^ opt fl job.milp.gap_tol;
    ]
  in
  let scen =
    if job.scenario = no_scenario then []
    else
      [
        "radius=" ^ opt fl job.scenario.radius_km;
        "conc=" ^ opt string_of_int job.scenario.max_concurrent;
        "warn=" ^ opt fl job.scenario.warning_s;
        "link=" ^ opt fl job.scenario.link_mb_s;
        "maxlat=" ^ opt fl job.scenario.max_latency_ms;
      ]
  in
  String.concat "|" (base @ scen)

let fingerprint job = Digest.to_hex (Digest.string (canonical job))

let build_estate job =
  let asis =
    match job.estate with
    | Inline { build; _ } -> build ()
    | Dataset { name; scale; seed; groups; targets } -> (
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
        | other -> invalid_arg (Printf.sprintf "unknown dataset %S" other))
  in
  match job.dr_server_cost with
  | None -> asis
  | Some zeta ->
      {
        asis with
        Etransform.Asis.params =
          { asis.Etransform.Asis.params with Etransform.Asis.dr_server_cost = zeta };
      }

let failure_spec job =
  let d = Scenario.Failure.default in
  {
    Scenario.Failure.radius_km = job.scenario.radius_km;
    max_concurrent =
      Option.value job.scenario.max_concurrent
        ~default:d.Scenario.Failure.max_concurrent;
    warning_s = job.scenario.warning_s;
    link_mb_s =
      Option.value job.scenario.link_mb_s ~default:d.Scenario.Failure.link_mb_s;
  }

let milp_options job =
  let base = Etransform.Solver.default_milp_options in
  {
    base with
    Lp.Milp.node_limit =
      Option.value job.milp.node_limit ~default:base.Lp.Milp.node_limit;
    time_limit =
      Option.value job.milp.time_limit ~default:base.Lp.Milp.time_limit;
    gap_tol = Option.value job.milp.gap_tol ~default:base.Lp.Milp.gap_tol;
  }
