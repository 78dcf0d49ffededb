(* Self-test of the benchmark's seeded workload generation. *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let bodies jobs = List.map (fun (j : Gen.job) -> j.Gen.body) jobs
let fps jobs = List.map (fun (j : Gen.job) -> j.Gen.fp) jobs

(* Everything a run of [w] under [seed] can send, for a prefix of its
   request sequence. *)
let jobs seed w =
  Array.to_list (Gen.warmup seed w)
  @ Array.to_list (Gen.working_set seed w)
  @ List.init 120 (Gen.fresh seed w)

let draws seed w =
  Array.to_list (Gen.open_requests seed w 5000)

let () =
  List.iter
    (fun w ->
      let n = Gen.name w in
      check (n ^ ": same seed, byte-identical jobs") (bodies (jobs 7 w) = bodies (jobs 7 w));
      check (n ^ ": same seed, identical request draws") (draws 7 w = draws 7 w);
      check (n ^ ": another seed, other jobs") (bodies (jobs 7 w) <> bodies (jobs 8 w)))
    Gen.workloads;
  List.iter
    (fun w ->
      let a = Hashtbl.create 256 in
      List.iter (fun fp -> Hashtbl.replace a fp ()) (fps (List.init 200 (Gen.fresh 1 w)));
      check
        (Gen.name w ^ ": seed 2 fingerprints disjoint from seed 1")
        (List.for_all (fun fp -> not (Hashtbl.mem a fp)) (fps (List.init 200 (Gen.fresh 2 w)))))
    [ Gen.Cold_plans; Gen.Estate_plans ];
  let distinct l = List.length (List.sort_uniq compare l) in
  let hot = fps (Array.to_list (Gen.working_set 1 Gen.Hot_hits)) in
  check "hot_hits: working set distinct and within a quarter of the LRU"
    (distinct hot = List.length hot && 4 * distinct hot <= Gen.hot_cache);
  let churn = fps (Array.to_list (Gen.working_set 1 Gen.Tier_churn)) in
  check "tier_churn: working set at least 8x the LRU"
    (distinct churn = List.length churn && distinct churn >= 8 * Gen.churn_cache);
  let fresh =
    List.filter (function Gen.Fresh _ -> true | Gen.Set _ -> false) (draws 1 Gen.Tier_churn)
  in
  check "tier_churn: never-seen jobs are a small share of requests"
    (List.length fresh > 0 && List.length fresh * 50 < 5000);
  if !failures > 0 then exit 1
