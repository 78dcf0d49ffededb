let fl = Service.Job.fl

let canonical_key ~penalty (cfg : Line_estate.config) =
  String.concat ","
    [
      "line";
      string_of_int cfg.Line_estate.n_dcs;
      string_of_int cfg.n_groups;
      string_of_int cfg.servers_per_group;
      string_of_int cfg.capacity;
      fl cfg.base_space;
      fl cfg.space_step;
      fl cfg.base_latency_ms;
      fl cfg.ms_per_hop;
      fl cfg.latency_exponent;
      fl cfg.users_per_group;
      fl cfg.frac_at_0;
      fl penalty;
      fl cfg.data_mb_month;
      (if cfg.use_vpn then "vpn" else "novpn");
      fl cfg.vpn_base;
      fl cfg.vpn_per_ms;
    ]

let estate ~penalty cfg =
  let cfg =
    { cfg with Line_estate.latency_penalty = Line_estate.banded_penalty penalty }
  in
  Service.Job.Inline
    {
      key = canonical_key ~penalty cfg;
      build = (fun () -> Line_estate.make cfg);
    }

let resolve j =
  match Option.bind (Service.Json.member "kind" j) Service.Json.to_str with
  | Some "line" ->
      let d = Line_estate.default in
      let num key default =
        match Option.bind (Service.Json.member key j) Service.Json.to_float with
        | Some f -> f
        | None -> default
      in
      let int key default =
        match Option.bind (Service.Json.member key j) Service.Json.to_int with
        | Some i -> i
        | None -> default
      in
      let bool key default =
        match Option.bind (Service.Json.member key j) Service.Json.to_bool with
        | Some b -> b
        | None -> default
      in
      let penalty = num "penalty" 0.0 in
      let cfg =
        {
          Line_estate.n_dcs = int "n_dcs" d.Line_estate.n_dcs;
          n_groups = int "n_groups" d.n_groups;
          servers_per_group = int "servers_per_group" d.servers_per_group;
          capacity = int "capacity" d.capacity;
          base_space = num "base_space" d.base_space;
          space_step = num "space_step" d.space_step;
          base_latency_ms = num "base_latency_ms" d.base_latency_ms;
          ms_per_hop = num "ms_per_hop" d.ms_per_hop;
          latency_exponent = num "latency_exponent" d.latency_exponent;
          users_per_group = num "users_per_group" d.users_per_group;
          frac_at_0 = num "frac_at_0" d.frac_at_0;
          latency_penalty = Line_estate.banded_penalty penalty;
          data_mb_month = num "data_mb_month" d.data_mb_month;
          use_vpn = bool "use_vpn" d.use_vpn;
          vpn_base = num "vpn_base" d.vpn_base;
          vpn_per_ms = num "vpn_per_ms" d.vpn_per_ms;
        }
      in
      (match estate ~penalty cfg with
      | Service.Job.Inline { key; build } -> Some (key, build)
      | Service.Job.Dataset _ -> None)
  | _ -> None
