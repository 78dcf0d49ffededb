(* Scale smoke (@scale-smoke): the two-domain equivalence suite.

   Part 1 — solver: seeded random generalized-assignment MILPs solved at
   workers=1 (the deterministic sequential search) and workers=2 under a
   seeded adversarial steal script; statuses and optimal objectives must
   agree on every instance.  On single-core hosts the two-worker request
   clamps down and the check degenerates to determinism — still worth
   running, and on multicore CI it exercises real concurrent stealing.

   Part 2 — pool: one batch of line-estate jobs through Service.Pool at
   workers=0 (inline) and workers=2; the NDJSON result lines must be
   byte-identical once delivery-only fields are stripped.

   Exits non-zero on the first disagreement. *)

module Prng = Datasets.Prng

let le = Lp.Model.Linexpr.sum

let random_gap rng =
  let groups = 3 + Prng.int rng 5 in
  let dcs = 2 + Prng.int rng 2 in
  let m = Lp.Model.create () in
  let x =
    Array.init groups (fun i ->
        Array.init dcs (fun j ->
            Lp.Model.add_var m ~binary:true (Printf.sprintf "x_%d_%d" i j)))
  in
  let sizes = Array.init groups (fun _ -> 1.0 +. Prng.range rng 0.0 4.0) in
  for i = 0 to groups - 1 do
    Lp.Model.add_eq m
      (Printf.sprintf "assign%d" i)
      (le (Array.to_list (Array.map Lp.Model.Linexpr.var x.(i))))
      1.0
  done;
  let total = Array.fold_left ( +. ) 0.0 sizes in
  let cap = total /. float_of_int dcs *. Prng.range rng 0.95 1.4 in
  for j = 0 to dcs - 1 do
    Lp.Model.add_le m
      (Printf.sprintf "cap%d" j)
      (le
         (List.init groups (fun i ->
              Lp.Model.Linexpr.term sizes.(i) x.(i).(j))))
      cap
  done;
  Lp.Model.set_objective m
    (le
       (List.concat_map
          (fun i ->
            List.init dcs (fun j ->
                Lp.Model.Linexpr.term
                  (1.0 +. Prng.range rng 0.0 9.0)
                  x.(i).(j)))
          (List.init groups Fun.id)));
  m

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let solver_part () =
  let rng = Prng.create 0x5CA1E in
  let script_rng = Prng.create 0xBEEF in
  let trees = ref 0 in
  for case = 1 to 40 do
    let m = random_gap rng in
    let opts =
      { Lp.Milp.default_options with Lp.Milp.dive_first = false }
    in
    let seq = Lp.Milp.solve ~options:opts m in
    let script = Array.init 8 (fun _ -> Prng.int script_rng 2) in
    let steal_order ~thief ~round =
      script.((thief + round) mod Array.length script)
    in
    let par =
      Lp.Milp.solve
        ~options:{ opts with Lp.Milp.workers = 2 }
        ~steal_order m
    in
    if par.Lp.Milp.status <> seq.Lp.Milp.status then
      fail "scale-smoke: case %d status %s (w2) vs %s (w1)" case
        (Lp.Status.to_string par.Lp.Milp.status)
        (Lp.Status.to_string seq.Lp.Milp.status);
    if
      seq.Lp.Milp.status = Lp.Status.Optimal
      && Float.abs (par.Lp.Milp.obj -. seq.Lp.Milp.obj)
         > 1e-6 *. (1.0 +. Float.abs seq.Lp.Milp.obj)
    then
      fail "scale-smoke: case %d objective %.9g (w2) vs %.9g (w1)" case
        par.Lp.Milp.obj seq.Lp.Milp.obj;
    if seq.Lp.Milp.nodes > 1 then incr trees
  done;
  if !trees = 0 then fail "scale-smoke: no instance opened a tree";
  !trees

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
  let trees = solver_part () in
  let jobs = pool_part () in
  Printf.printf
    "scale-smoke: 40 MILPs agree at w1/w2 (%d with real trees), %d pool \
     jobs byte-identical at w0/w2 (host domains: %d)\n"
    trees jobs
    (Domain.recommended_domain_count ())
