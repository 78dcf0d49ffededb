let rtt_ms ?(base_ms = 1.0) distance_km = base_ms +. (distance_km /. 100.0)

let matrix ?base_ms ~dcs ~users () =
  Array.map
    (fun dc ->
      Array.map (fun u -> rtt_ms ?base_ms (Location.distance_km dc u)) users)
    dcs

let mean ~total ~weights row =
  if Array.length weights <> Array.length row then
    invalid_arg "Latency_model.average: length mismatch";
  if total <= 0.0 then 0.0
  else begin
    (* A loop over a local ref boxes no float per location. *)
    let acc = ref 0.0 in
    for i = 0 to Array.length weights - 1 do
      acc := !acc +. (weights.(i) *. row.(i))
    done;
    !acc /. total
  end

let average ~weights row =
  let total = ref 0.0 in
  for i = 0 to Array.length weights - 1 do
    total := !total +. weights.(i)
  done;
  mean ~total:!total ~weights row
