type t = {
  name : string;
  servers : int;
  data_mb_month : float;
  users : float array;
  latency : Latency_penalty.t;
  allowed_dcs : int array option;
  colocate_avoid : int list;
}

let v ?(latency = Latency_penalty.none) ?allowed_dcs ?(colocate_avoid = [])
    ~name ~servers ~data_mb_month ~users () =
  if servers <= 0 then invalid_arg "App_group.v: servers must be positive";
  if data_mb_month < 0.0 then invalid_arg "App_group.v: negative traffic";
  Array.iter
    (fun u -> if u < 0.0 then invalid_arg "App_group.v: negative user count")
    users;
  { name; servers; data_mb_month; users; latency; allowed_dcs; colocate_avoid }

let total_users t =
  let s = ref 0.0 in
  for r = 0 to Array.length t.users - 1 do
    s := !s +. t.users.(r)
  done;
  !s

let allowed t j =
  match t.allowed_dcs with
  | None -> true
  | Some a -> Array.exists (fun k -> k = j) a

let pp ppf t =
  Fmt.pf ppf "%s: %d servers, %.0f users, %.0f Mb/mo (%a)" t.name t.servers
    (total_users t) t.data_mb_month Latency_penalty.pp t.latency
