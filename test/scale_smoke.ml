(* Scale smoke (@scale-smoke): the pool's worker-count equivalence.

   One batch of line-estate jobs through Service.Pool at workers=0
   (inline) and workers=2; the NDJSON result lines must be byte-identical
   once delivery-only fields are stripped.  Exits non-zero on the first
   disagreement. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* A result line without the fields that depend on delivery (timings,
   cache hit) rather than on the job. *)
let strip_delivery line =
  match Service.Json.parse line with
  | Ok (Service.Json.Obj fields) ->
      Service.Json.to_string
        (Service.Json.Obj
           (List.filter
              (fun (k, _) -> k <> "queue_s" && k <> "solve_s" && k <> "cache")
              fields))
  | _ -> line

let pool_part () =
  let jobs =
    List.concat_map
      (fun penalty ->
        List.map
          (fun frac ->
            Service.Job.v
              ~milp:
                {
                  Service.Job.no_overrides with
                  Service.Job.node_limit = Some 2;
                  time_limit = Some 20.0;
                }
              (Harness.Line_jobs.estate ~penalty
                 {
                   Harness.Line_estate.default with
                   Harness.Line_estate.n_groups = 10;
                   frac_at_0 = frac;
                   latency_penalty = Harness.Line_estate.banded_penalty penalty;
                 }))
          [ 0.0; 0.5; 1.0 ])
      [ 0.0; 80.0 ]
  in
  let lines workers =
    Service.Pool.with_pool ~workers ~cache_capacity:16 (fun pool ->
        List.map
          (fun r -> strip_delivery (Service.Batch.result_to_line r))
          (Service.Pool.run_batch pool jobs))
  in
  let seq = lines 0 and par = lines 2 in
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        fail "scale-smoke: pool line %d differs\n  w0: %s\n  w2: %s" i a b)
    (List.combine seq par);
  List.length seq

let () =
  let jobs = pool_part () in
  Printf.printf
    "scale-smoke: %d pool jobs byte-identical at w0/w2 (host domains: %d)\n"
    jobs
    (Domain.recommended_domain_count ())
