(* The concurrent planning service: JSON plumbing, canonical fingerprints,
   the LRU plan cache, the domain worker pool, and degradation policy. *)

open Etransform

let contains_substring ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let line_milp =
  {
    Service.Job.no_overrides with
    Service.Job.node_limit = Some 2;
    time_limit = Some 20.0;
  }

let small_cfg penalty frac =
  {
    Harness.Line_estate.default with
    Harness.Line_estate.n_groups = 12;
    frac_at_0 = frac;
    latency_penalty = Harness.Line_estate.banded_penalty penalty;
  }

let small_job ?deadline_s ?(degrade = true) penalty frac =
  Service.Job.v ~milp:line_milp ?deadline_s ~degrade
    (Harness.Line_jobs.estate ~penalty (small_cfg penalty frac))

(* ----------------------------------------------------------------- JSON *)

let test_json_roundtrip () =
  let text =
    {|{"a":1,"b":[true,null,"x\n\"y\""],"c":{"d":-2.5e3},"e":""}|}
  in
  let j =
    match Service.Json.parse text with
    | Ok j -> j
    | Error m -> Alcotest.failf "parse: %s" m
  in
  Alcotest.(check (option (float 0.0))) "a" (Some 1.0)
    (Option.bind (Service.Json.member "a" j) Service.Json.to_float);
  (match Service.Json.member "b" j with
  | Some (Service.Json.List [ Service.Json.Bool true; Service.Json.Null; Service.Json.Str s ])
    ->
      Alcotest.(check string) "escapes" "x\n\"y\"" s
  | _ -> Alcotest.fail "array shape");
  let reparsed =
    match Service.Json.parse (Service.Json.to_string j) with
    | Ok j -> j
    | Error m -> Alcotest.failf "reparse: %s" m
  in
  Alcotest.(check bool) "print/parse fixpoint" true (j = reparsed);
  (match Service.Json.parse "{\"a\":1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted")

let test_json_non_finite () =
  (* JSON has no NaN/Infinity: all non-finite numbers print as null so
     result and trace lines stay parseable. *)
  let printed =
    Service.Json.to_string
      (Service.Json.List
         [
           Service.Json.Num Float.nan;
           Service.Json.Num Float.infinity;
           Service.Json.Num Float.neg_infinity;
           Service.Json.Num 1.5;
         ])
  in
  Alcotest.(check string) "non-finite as null" "[null,null,null,1.5]" printed;
  match Service.Json.parse printed with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "emitted invalid JSON: %s" m

let test_json_unicode_escapes () =
  let parse_str text =
    match Service.Json.parse text with
    | Ok (Service.Json.Str s) -> s
    | Ok _ -> Alcotest.failf "expected a string from %s" text
    | Error m -> Alcotest.failf "parse %s: %s" text m
  in
  (* Basic multilingual plane scalars decode directly. *)
  Alcotest.(check string) "BMP escape" "\xE2\x82\xAC"
    (parse_str {|"\u20ac"|});
  Alcotest.(check string) "ASCII escape" "A" (parse_str {|"\u0041"|});
  (* A surrogate pair is ONE scalar: U+1F600 as 4-byte UTF-8, not two
     raw-encoded UTF-16 halves. *)
  Alcotest.(check string) "surrogate pair combines"
    "\xF0\x9F\x98\x80"
    (parse_str {|"\ud83d\ude00"|});
  Alcotest.(check string) "pair inside text" "x\xF0\x9F\x98\x80y"
    (parse_str {|"x\uD83D\uDE00y"|});
  (* Print/parse round trip keeps the encoded scalar intact. *)
  let j = Service.Json.Str (parse_str {|"\ud83d\ude00"|}) in
  (match Service.Json.parse (Service.Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error m -> Alcotest.failf "roundtrip: %s" m);
  (* Unpaired or truncated surrogates are invalid JSON text. *)
  let rejects text =
    match Service.Json.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" text
  in
  rejects {|"\ud83d"|};
  rejects {|"\ud83dx"|};
  rejects {|"\ud83dA"|};
  rejects {|"\ude00"|};
  rejects {|"\ud83d\ud83d"|};
  (* int_of_string would take underscores and signs; strict hex must not. *)
  rejects {|"\u00_1"|};
  rejects {|"\u-041"|};
  rejects {|"\u004"|};
  rejects {|"\u004g"|}

(* --------------------------------------------------------------- metrics *)

let test_metrics_concurrent () =
  (* Counter and histogram cells must stay exact under concurrent
     increments from multiple domains sharing one registry. *)
  let m = Service.Metrics.create () in
  let per_domain = 2000 and domains = 3 in
  let work () =
    for i = 1 to per_domain do
      Service.Metrics.incr m "test_total" ~labels:[ ("d", "x") ];
      Service.Metrics.observe m "test_seconds"
        ~buckets:[| 0.5; 1.5 |]
        (if i mod 2 = 0 then 1.0 else 2.0)
    done
  in
  let spawned = Array.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  Array.iter Domain.join spawned;
  Alcotest.(check (option (float 0.0))) "counter exact"
    (Some (float_of_int (domains * per_domain)))
    (Service.Metrics.value m "test_total" ~labels:[ ("d", "x") ]);
  Alcotest.(check (option (float 0.0))) "histogram count exact"
    (Some (float_of_int (domains * per_domain)))
    (Service.Metrics.value m "test_seconds");
  let rendered = Service.Metrics.render m in
  let expect_line line =
    Alcotest.(check bool) ("renders " ^ line) true
      (contains_substring ~affix:line rendered)
  in
  expect_line (Printf.sprintf "test_total{d=\"x\"} %d" (domains * per_domain));
  (* The 1.0 observations (half of them) fall under le=1.5; the 2.0
     observations only under the implicit +Inf bucket. *)
  expect_line
    (Printf.sprintf "test_seconds_bucket{le=\"1.5\"} %d"
       (domains * per_domain / 2));
  expect_line
    (Printf.sprintf "test_seconds_bucket{le=\"+Inf\"} %d"
       (domains * per_domain));
  expect_line
    (Printf.sprintf "test_seconds_count %d" (domains * per_domain))

let test_metrics_trace_feed () =
  (* A pool whose trace is teed into a registry meters its jobs without
     disturbing the primary JSONL sink. *)
  let jsonl = Service.Trace.memory () in
  let m = Service.Metrics.create () in
  let trace =
    Service.Trace.tee jsonl
      (Service.Trace.observer (Service.Metrics.observe_trace m))
  in
  let job = small_job 40.0 0.5 in
  Service.Pool.with_pool ~workers:0 ~trace (fun pool ->
      ignore (Service.Pool.run_batch pool [ job ]);
      ignore (Service.Pool.run_batch pool [ job ]));
  Alcotest.(check (option (float 0.0))) "miss counted" (Some 1.0)
    (Service.Metrics.value m "etransform_jobs_total"
       ~labels:[ ("code", "solved"); ("cache", "miss") ]);
  Alcotest.(check (option (float 0.0))) "hit counted" (Some 1.0)
    (Service.Metrics.value m "etransform_jobs_total"
       ~labels:[ ("code", "solved"); ("cache", "hit") ]);
  Alcotest.(check (option (float 0.0))) "batches counted" (Some 2.0)
    (Service.Metrics.value m "etransform_batches_total");
  Alcotest.(check (option (float 0.0))) "solve time observed" (Some 2.0)
    (Service.Metrics.value m "etransform_job_solve_seconds");
  (* The JSONL sink still saw everything (2 jobs + 2 batch summaries). *)
  let lines =
    String.split_on_char '\n' (Service.Trace.contents jsonl)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "jsonl intact" 4 (List.length lines)

(* ---------------------------------------------------------- fingerprints *)

let parse_job line =
  match
    Service.Batch.job_of_line ~resolve:Harness.Line_jobs.resolve line
  with
  | Ok job -> job
  | Error m -> Alcotest.failf "job_of_line: %s" m

let test_fingerprint_permutation () =
  (* The same scenario with every key order permuted, top-level and
     nested, must hash to the same content address. *)
  let a =
    parse_job
      {|{"id":"a","estate":{"kind":"line","n_groups":12,"penalty":40,"frac_at_0":0.25},"milp":{"nodes":2,"time":20},"dr":false}|}
  in
  let b =
    parse_job
      {|{"dr":false,"milp":{"time":20,"nodes":2},"estate":{"frac_at_0":0.25,"penalty":40,"kind":"line","n_groups":12},"id":"b"}|}
  in
  Alcotest.(check string) "permuted spec, same fingerprint"
    (Service.Job.fingerprint a) (Service.Job.fingerprint b);
  let c =
    parse_job
      {|{"id":"c","estate":{"kind":"line","n_groups":12,"penalty":41,"frac_at_0":0.25},"milp":{"nodes":2,"time":20}}|}
  in
  Alcotest.(check bool) "changed penalty, new fingerprint" true
    (Service.Job.fingerprint a <> Service.Job.fingerprint c)

let test_fingerprint_ignores_delivery () =
  let base = small_job 20.0 0.5 in
  let with_deadline = { base with Service.Job.id = "x"; deadline_s = Some 9.0 } in
  let no_degrade = { base with Service.Job.degrade = false } in
  Alcotest.(check string) "deadline/id excluded"
    (Service.Job.fingerprint base)
    (Service.Job.fingerprint with_deadline);
  Alcotest.(check string) "degrade excluded"
    (Service.Job.fingerprint base)
    (Service.Job.fingerprint no_degrade);
  let dr = { base with Service.Job.dr = true } in
  Alcotest.(check bool) "dr included" true
    (Service.Job.fingerprint base <> Service.Job.fingerprint dr)

(* The fingerprint is a content address shared with disk stores and
   peers, so it may only change on purpose: a change that makes the same
   job plan differently bumps the tag in [Job.canonical] and this
   literal with it, and a change to the canonical fields changes this
   literal alone. *)
let test_fingerprint_pinned () =
  let job =
    parse_job
      {|{"id":"pin","estate":{"kind":"line","n_groups":12,"penalty":40,"frac_at_0":0.25},"milp":{"nodes":2,"time":20},"dr":false}|}
  in
  Alcotest.(check string)
    "pinned fingerprint" "0f075dd1a7bef8a3869dfbac5137bb3c"
    (Service.Job.fingerprint job)

(* Keys and result lines print floats through the runtime's primitives
   directly.  They must print what the [Printf] forms did, byte for byte:
   the references below are those forms, kept here only. *)

let ref_hex f = Printf.sprintf "%h" f

let ref_number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Signed zeros, subnormals, infinities, NaNs of both signs, every power
   of two, their neighbours, integers around the 1e15 switch, and 10 000
   seeded random bit patterns. *)
let float_corpus =
  let st = Random.State.make [| 36 |] in
  let specials =
    [
      0.0; -0.0; infinity; neg_infinity; nan; Float.neg nan; Float.min_float;
      -.Float.min_float; Float.max_float; -.Float.max_float; 4.9e-324;
      -4.9e-324; Float.pred Float.min_float; Float.epsilon; 1e15; -1e15;
      Float.pred 1e15; Float.succ 1e15; 0.1; 1.0 /. 3.0; 123456.789;
    ]
  in
  let powers =
    List.concat_map
      (fun k ->
        let p = Float.ldexp 1.0 k in
        [ p; -.p; Float.succ p; Float.pred p ])
      (List.init (1023 + 1075) (fun i -> i - 1074))
  in
  let random =
    List.init 10_000 (fun _ -> Int64.float_of_bits (Random.State.bits64 st))
  in
  specials @ powers @ random

let test_hex_floats_match_printf () =
  List.iter
    (fun f ->
      let want = ref_hex f in
      if Service.Job.fl f <> want then
        Alcotest.failf "Job.fl %Lx: %S, Printf %S" (Int64.bits_of_float f)
          (Service.Job.fl f) want)
    float_corpus;
  (* [Line_jobs.fl] through the key it writes: each float field of a
     line estate, and the penalty, is one comma-separated field. *)
  let corpus = Array.of_list float_corpus in
  for c = 0 to (Array.length corpus / 11) - 1 do
    let v = Array.sub corpus (11 * c) 11 in
    let cfg =
      {
        Harness.Line_estate.default with
        Harness.Line_estate.base_space = v.(0);
        space_step = v.(1);
        base_latency_ms = v.(2);
        ms_per_hop = v.(3);
        latency_exponent = v.(4);
        users_per_group = v.(5);
        frac_at_0 = v.(6);
        data_mb_month = v.(8);
        vpn_base = v.(9);
        vpn_per_ms = v.(10);
      }
    in
    let key = Harness.Line_jobs.canonical_key ~penalty:v.(7) cfg in
    let fields = Array.of_list (String.split_on_char ',' key) in
    Alcotest.(check (array string)) "line key floats" (Array.map ref_hex v)
      (Array.append (Array.sub fields 5 9) (Array.sub fields 15 2))
  done

let test_number_to_string_matches_printf () =
  List.iter
    (fun f ->
      let want = ref_number f in
      if Service.Json.number_to_string f <> want then
        Alcotest.failf "number_to_string %Lx: %S, Printf %S"
          (Int64.bits_of_float f) (Service.Json.number_to_string f) want)
    float_corpus;
  (* Integers below the switch print with or without a sign, and through
     [to_string] the same way. *)
  List.iter
    (fun f ->
      Alcotest.(check string) "integer" (ref_number f)
        (Service.Json.to_string (Service.Json.Num f)))
    [
      0.0; -0.0; 7.0; -7.0; 10.0; 99999.0; 999999999999999.0;
      -999999999999999.0;
    ]

(* Unknown keys are ignored (Batch's contract), including the "milp"
   keys older clients may still send. *)
let test_unknown_milp_keys_ignored () =
  let plain =
    parse_job
      {|{"estate":{"kind":"line","n_groups":12,"penalty":40,"frac_at_0":0.25},"milp":{"nodes":2,"time":20}}|}
  in
  let extra =
    parse_job
      {|{"estate":{"kind":"line","n_groups":12,"penalty":40,"frac_at_0":0.25},"milp":{"nodes":2,"time":20,"branching":"pseudocost","pump":false,"cuts":false,"workers":4}}|}
  in
  Alcotest.(check bool) "same milp overrides" true
    (plain.Service.Job.milp = extra.Service.Job.milp);
  Alcotest.(check string) "same fingerprint"
    (Service.Job.fingerprint plain) (Service.Job.fingerprint extra)

(* A DR job cannot ask for fixed charges: the DR planner prices none, so
   the field would only split the cache key.  The decoder names the
   field, and [Job.v] refuses the pair. *)
let test_dr_fixed_charges_rejected () =
  let estate = {|"estate":{"kind":"line","n_groups":12,"penalty":40,"frac_at_0":0.25}|} in
  (match
     Service.Batch.job_of_line ~resolve:Harness.Line_jobs.resolve
       ({|{"dr":true,"fixed_charges":true,|} ^ estate ^ "}")
   with
  | Ok _ -> Alcotest.fail "decoded a DR job with fixed charges"
  | Error e ->
      Alcotest.(check bool) ("error names the field: " ^ e) true
        (Astring_contains.contains e "fixed_charges"));
  List.iter
    (fun flags -> ignore (parse_job ("{" ^ flags ^ estate ^ "}")))
    [ {|"dr":true,|}; {|"fixed_charges":true,|}; {|"dr":false,"fixed_charges":true,|} ];
  match
    Service.Job.v ~dr:true ~fixed_charges:true
      (Service.Job.Dataset
         { name = "florida"; scale = 0.25; seed = 0; groups = 0; targets = 0 })
  with
  | _ -> Alcotest.fail "Job.v accepted a DR job with fixed charges"
  | exception Invalid_argument _ -> ()

(* ----------------------------------------------------------------- cache *)

let test_cache_eviction () =
  let c = Service.Cache.create ~capacity:2 () in
  Service.Cache.add c "a" 1;
  Service.Cache.add c "b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1) (Service.Cache.find c "a");
  (* a is now most recent, so inserting c evicts b. *)
  Service.Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Service.Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Service.Cache.find c "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Service.Cache.find c "c");
  Alcotest.(check int) "one eviction" 1 (Service.Cache.evictions c);
  Alcotest.(check int) "size bounded" 2 (Service.Cache.length c);
  Service.Cache.add c "a" 10;
  Alcotest.(check (option int)) "refresh replaces" (Some 10)
    (Service.Cache.find c "a");
  Alcotest.(check int) "refresh does not evict" 1 (Service.Cache.evictions c)

let test_cache_disabled () =
  let c = Service.Cache.create ~capacity:0 () in
  Service.Cache.add c "a" 1;
  Alcotest.(check (option int)) "nothing stored" None (Service.Cache.find c "a")

(* ------------------------------------------------------------------ pool *)

let check_same_results msg seq par =
  Alcotest.(check int) (msg ^ ": count") (List.length seq) (List.length par);
  List.iter2
    (fun (a : Service.Pool.result) (b : Service.Pool.result) ->
      Alcotest.(check bool) (msg ^ ": both solved") true
        (a.Service.Pool.code = Service.Pool.Solved
        && b.Service.Pool.code = Service.Pool.Solved);
      match (a.Service.Pool.outcome, b.Service.Pool.outcome) with
      | Some oa, Some ob ->
          Alcotest.(check (array int)) (msg ^ ": same placement")
            oa.Solver.placement.Placement.primary
            ob.Solver.placement.Placement.primary;
          Alcotest.(check (float 0.0)) (msg ^ ": same cost")
            (Evaluate.total oa.Solver.summary.Evaluate.cost)
            (Evaluate.total ob.Solver.summary.Evaluate.cost)
      | _ -> Alcotest.fail (msg ^ ": missing outcome"))
    seq par

let sweep_jobs () =
  List.concat_map
    (fun p -> List.map (fun f -> small_job p f) [ 0.0; 0.5; 1.0 ])
    [ 0.0; 80.0 ]

let test_pool_parallel_equals_sequential () =
  let jobs = sweep_jobs () in
  let seq =
    Service.Pool.with_pool ~workers:0 (fun pool ->
        Service.Pool.run_batch pool jobs)
  in
  let par =
    Service.Pool.with_pool ~workers:3 (fun pool ->
        Service.Pool.run_batch pool jobs)
  in
  check_same_results "pool" seq par;
  (* And the sequential pool path equals a direct engine call. *)
  let direct =
    let milp =
      { Solver.default_milp_options with Lp.Milp.node_limit = 2;
        time_limit = 20.0 }
    in
    Solver.consolidate ~milp
      (Harness.Line_estate.make (small_cfg 0.0 0.0))
  in
  match (List.hd seq).Service.Pool.outcome with
  | Some o ->
      Alcotest.(check (array int)) "pool equals direct solve"
        direct.Solver.placement.Placement.primary
        o.Solver.placement.Placement.primary
  | None -> Alcotest.fail "first job has no outcome"

let test_pool_thousand_tiny_jobs () =
  (* Stress the pool's job queue: 1000 tiny jobs through 4 workers (3
     domain workers plus worker 0).  Every ticket must resolve, results
     must come back in submission order, and nothing may be dropped or
     duplicated.  The jobs cycle through 8 distinct specs, so the plan
     cache carries most of the load — which is exactly the
     small-fast-job regime where a scheduler race would surface as a
     lost wakeup or a misordered stream. *)
  let n = 1000 in
  let configs =
    [| (0.0, 0.0); (0.0, 0.5); (0.0, 1.0); (40.0, 0.5);
       (80.0, 0.0); (80.0, 0.5); (80.0, 1.0); (40.0, 1.0) |]
  in
  let jobs =
    List.init n (fun i ->
        let penalty, frac = configs.(i mod Array.length configs) in
        let base = small_job penalty frac in
        { base with Service.Job.id = Printf.sprintf "job-%d" i })
  in
  let results =
    Service.Pool.with_pool ~workers:4 ~queue_capacity:32 (fun pool ->
        Service.Pool.run_batch pool jobs)
  in
  Alcotest.(check int) "every job answered" n (List.length results);
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "slot %d in submission order" i)
        (Printf.sprintf "job-%d" i)
        r.Service.Pool.job.Service.Job.id;
      match r.Service.Pool.code with
      | Service.Pool.Solved | Service.Pool.Degraded -> ()
      | Service.Pool.Failed ->
          Alcotest.failf "job %d failed: %s" i
            (Option.value r.Service.Pool.reason ~default:"?"))
    results;
  let hits =
    List.length (List.filter (fun r -> r.Service.Pool.cache_hit) results)
  in
  Alcotest.(check bool) "cache did the heavy lifting" true
    (hits >= n - (2 * Array.length configs))

let test_cache_hit_on_repeat () =
  let trace = Service.Trace.memory () in
  let job = small_job 40.0 0.5 in
  Service.Pool.with_pool ~workers:0 ~trace (fun pool ->
      let first = List.hd (Service.Pool.run_batch pool [ job ]) in
      let second = List.hd (Service.Pool.run_batch pool [ job ]) in
      Alcotest.(check bool) "first misses" false first.Service.Pool.cache_hit;
      Alcotest.(check bool) "second hits" true second.Service.Pool.cache_hit;
      Alcotest.(check bool) "hit is solved" true
        (second.Service.Pool.code = Service.Pool.Solved);
      match (first.Service.Pool.outcome, second.Service.Pool.outcome) with
      | Some a, Some b ->
          Alcotest.(check (array int)) "hit returns the cached plan"
            a.Solver.placement.Placement.primary
            b.Solver.placement.Placement.primary
      | _ -> Alcotest.fail "missing outcomes");
  let lines =
    String.split_on_char '\n' (Service.Trace.contents trace)
    |> List.filter (fun l -> l <> "")
  in
  (* 2 job events + 2 batch summaries, all parseable JSONL. *)
  Alcotest.(check int) "trace lines" 4 (List.length lines);
  List.iter
    (fun line ->
      match Service.Json.parse line with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "unparseable trace line %S: %s" line m)
    lines;
  Alcotest.(check bool) "trace records the hit" true
    (List.exists
       (fun l -> contains_substring ~affix:{|"cache":"hit"|} l)
       lines)

let test_degraded_deadline () =
  (* A deadline of zero expires before the MILP starts: the job must come
     back tagged degraded with the greedy plan, not fail the batch. *)
  let job = small_job ~deadline_s:0.0 20.0 0.5 in
  let greedy =
    Greedy.plan (Harness.Line_estate.make (small_cfg 20.0 0.5))
  in
  Service.Pool.with_pool ~workers:0 (fun pool ->
      let r = List.hd (Service.Pool.run_batch pool [ job ]) in
      Alcotest.(check bool) "degraded" true
        (r.Service.Pool.code = Service.Pool.Degraded);
      Alcotest.(check bool) "reason given" true (r.Service.Pool.reason <> None);
      (match r.Service.Pool.outcome with
      | Some o ->
          Alcotest.(check (array int)) "greedy fallback plan" greedy.Placement.primary
            o.Solver.placement.Placement.primary;
          Alcotest.(check bool) "status marks the timeout" true
            (o.Solver.milp_status = Lp.Status.Time_limit)
      | None -> Alcotest.fail "degraded job still carries a plan");
      (* Degraded plans must not poison the cache: the same scenario
         without a deadline gets a real solve, not the greedy stand-in. *)
      let clean = { job with Service.Job.deadline_s = None } in
      let r2 = List.hd (Service.Pool.run_batch pool [ clean ]) in
      Alcotest.(check string) "same content address"
        r.Service.Pool.fingerprint r2.Service.Pool.fingerprint;
      Alcotest.(check bool) "clean rerun misses the cache" false
        r2.Service.Pool.cache_hit;
      Alcotest.(check bool) "clean rerun is a full solve" true
        (r2.Service.Pool.code = Service.Pool.Solved))

let test_capped_budget_not_cached () =
  (* A deadline that arrives mid-queue caps the MILP budget to the time
     remaining.  Such a solve can be cut short (Time_limit) yet still be
     coded Solved, and the fingerprint deliberately excludes deadline_s —
     so it must never enter the cache, or a later full-budget job would be
     served the potentially degraded plan as a Solved hit. *)
  let capped = small_job ~deadline_s:5.0 40.0 0.25 in
  Service.Pool.with_pool ~workers:0 (fun pool ->
      let r1 = List.hd (Service.Pool.run_batch pool [ capped ]) in
      Alcotest.(check bool) "capped job solves" true
        (r1.Service.Pool.code = Service.Pool.Solved);
      let clean = { capped with Service.Job.deadline_s = None } in
      let r2 = List.hd (Service.Pool.run_batch pool [ clean ]) in
      Alcotest.(check string) "same content address"
        r1.Service.Pool.fingerprint r2.Service.Pool.fingerprint;
      Alcotest.(check bool) "full-budget rerun misses the cache" false
        r2.Service.Pool.cache_hit;
      (* The full-budget solve is the one that populates the cache. *)
      let r3 = List.hd (Service.Pool.run_batch pool [ clean ]) in
      Alcotest.(check bool) "second full-budget run hits" true
        r3.Service.Pool.cache_hit)

let test_failed_without_degradation () =
  let job = small_job ~deadline_s:0.0 ~degrade:false 20.0 0.5 in
  Service.Pool.with_pool ~workers:0 (fun pool ->
      let r = List.hd (Service.Pool.run_batch pool [ job ]) in
      Alcotest.(check bool) "failed" true
        (r.Service.Pool.code = Service.Pool.Failed);
      Alcotest.(check bool) "no outcome" true (r.Service.Pool.outcome = None))

(* ----------------------------------------------------------------- batch *)

let test_batch_stream_alignment () =
  let input =
    String.concat "\n"
      [
        {|{"id":"j1","estate":{"kind":"line","n_groups":12},"milp":{"nodes":2,"time":20}}|};
        "# a comment between jobs";
        "this is not json";
        {|{"id":"j2","estate":{"n_groups":12,"kind":"line"},"milp":{"time":20,"nodes":2}}|};
        "";
      ]
  in
  let in_file = Filename.temp_file "etransform_batch" ".ndjson" in
  let out_file = Filename.temp_file "etransform_batch" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_file;
      Sys.remove out_file)
    (fun () ->
      let oc = open_out in_file in
      output_string oc input;
      close_out oc;
      let ic = open_in in_file and oc = open_out out_file in
      let ok, degraded, failed =
        Service.Pool.with_pool ~workers:2 (fun pool ->
            Service.Batch.run ~resolve:Harness.Line_jobs.resolve pool ic oc)
      in
      close_in ic;
      close_out oc;
      Alcotest.(check (list int)) "counts" [ 2; 0; 1 ] [ ok; degraded; failed ];
      let ic = open_in out_file in
      let rec read acc =
        match input_line ic with
        | l -> read (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = read [] in
      close_in ic;
      (* Comment and blank skipped; bad line kept in place as invalid. *)
      Alcotest.(check int) "three output lines" 3 (List.length lines);
      let codes =
        List.map
          (fun l ->
            match Service.Json.parse l with
            | Ok j ->
                Option.value ~default:"?"
                  (Option.bind (Service.Json.member "code" j)
                     Service.Json.to_str)
            | Error m -> Alcotest.failf "bad output line: %s" m)
          lines
      in
      Alcotest.(check (list string)) "codes in input order"
        [ "ok"; "invalid"; "ok" ] codes;
      (* j1 and j2 are the same scenario with permuted keys: same content
         address, same cost, whichever worker got there first. *)
      let fp_of l =
        match Service.Json.parse l with
        | Ok j ->
            Option.value ~default:""
              (Option.bind (Service.Json.member "fp" j) Service.Json.to_str)
        | Error _ -> ""
      in
      Alcotest.(check string) "permuted jobs share a fingerprint"
        (fp_of (List.nth lines 0))
        (fp_of (List.nth lines 2)))

(* A writer that dies mid-stream (EPIPE on a closed pipe, say) must wind
   the stream down: no more reads or writes, every admitted job resolved
   before run_lines returns, the first write exception re-raised, and
   the pool still able to shut down. *)
exception Write_failed of int

let test_batch_writer_failure () =
  (* "slow" estates: distinct keys (no cache hits) and a build that
     sleeps, so a stream returning before its tickets resolve shows. *)
  let resolve ej =
    match Option.bind (Service.Json.member "kind" ej) Service.Json.to_str with
    | Some "slow" ->
        Some
          ( "slow:" ^ Service.Json.to_string ej,
            fun () ->
              Unix.sleepf 0.02;
              Harness.Line_estate.make (small_cfg 0.0 0.0) )
    | _ -> None
  in
  List.iter
    (fun workers ->
      let finished = Atomic.make 0 in
      let trace =
        Service.Trace.observer (fun fields ->
            if List.assoc_opt "event" fields = Some (Service.Json.Str "job")
            then Atomic.incr finished)
      in
      let pool = Service.Pool.create ~workers ~queue_capacity:4 ~trace () in
      let n = 12 and read = ref 0 and writes = ref 0 in
      let read_line () =
        if !read >= n then None
        else begin
          incr read;
          Some
            (Printf.sprintf
               {|{"id":"w%d","estate":{"kind":"slow","n":%d},"milp":{"nodes":2,"time":20}}|}
               !read !read)
        end
      in
      let write _ =
        incr writes;
        if !writes >= 2 then raise (Write_failed !writes)
      in
      let label what = Printf.sprintf "workers=%d: %s" workers what in
      (match Service.Batch.run_lines ~resolve pool ~read_line ~write with
      | _ -> Alcotest.fail (label "writer failure swallowed")
      | exception Write_failed k ->
          Alcotest.(check int) (label "first failure re-raised") 2 k);
      Alcotest.(check int) (label "no write after the failure") 2 !writes;
      Alcotest.(check bool) (label "reading stopped") true (!read < n);
      Alcotest.(check int)
        (label "every submitted ticket resolved")
        !read (Atomic.get finished);
      Service.Pool.shutdown pool)
    [ 0; 2 ]

(* ------------------------------------------- submit-time hits, layout *)

(* A local tier over a table, standing in for the disk store. *)
let table_tier table =
  {
    Service.Tiered.name = "disk";
    remote = false;
    find = Hashtbl.find_opt table;
    store = (fun ~capped fp o -> if not capped then Hashtbl.replace table fp o);
    bytes = None;
  }

(* A remote tier that misses, but whose [find] holds each worker that
   consults it until [need] workers are inside or the gate is opened.
   Only workers consult remote tiers, so the gate pins them in place
   while the test submits. *)
type gate = {
  gm : Mutex.t;
  gc : Condition.t;
  need : int;
  mutable entered : int;
  mutable opened : bool;
}

let gate need =
  { gm = Mutex.create (); gc = Condition.create (); need; entered = 0;
    opened = false }

let gate_tier g =
  let find _ =
    Mutex.lock g.gm;
    g.entered <- g.entered + 1;
    Condition.broadcast g.gc;
    while g.entered < g.need && not g.opened do
      Condition.wait g.gc g.gm
    done;
    Mutex.unlock g.gm;
    None
  in
  { Service.Tiered.name = "peer"; remote = true; find;
    store = (fun ~capped:_ _ _ -> ()); bytes = None }

let wait_entered g n =
  Mutex.lock g.gm;
  while g.entered < n do
    Condition.wait g.gc g.gm
  done;
  Mutex.unlock g.gm

let open_gate g =
  Mutex.lock g.gm;
  g.opened <- true;
  Condition.broadcast g.gc;
  Mutex.unlock g.gm

let close_gate g =
  Mutex.lock g.gm;
  g.opened <- false;
  g.entered <- 0;
  Mutex.unlock g.gm

let entered g =
  Mutex.lock g.gm;
  let n = g.entered in
  Mutex.unlock g.gm;
  n

let solved_outcome =
  lazy
    (Service.Pool.with_pool ~workers:0 (fun pool ->
         match (List.hd (Service.Pool.run_batch pool [ small_job 0.0 0.5 ]))
                 .Service.Pool.outcome
         with
         | Some o -> o
         | None -> Alcotest.fail "fixture job has no plan"))

let with_id id job = { job with Service.Job.id }

let tier_of r = r.Service.Pool.cache_tier

let test_pool_lookup_counts () =
  (* Each job is counted once per tier it consulted, whether a submitter
     answered it or a worker did; the deltas are the ones a pool that
     looked everything up on its workers reports. *)
  let disk = Hashtbl.create 4 and g = gate max_int in
  Service.Pool.with_pool ~workers:1 ~tiers:[ table_tier disk; gate_tier g ]
    (fun pool ->
      Fun.protect ~finally:(fun () -> open_gate g) @@ fun () ->
      let tiered = Service.Pool.tiered pool in
      let delta f =
        let before = Service.Tiered.counts tiered in
        let x = f () in
        let after = Service.Tiered.counts tiered in
        let moved =
          List.filter_map
            (fun (k, n) ->
              let d = n - Option.value ~default:0 (List.assoc_opt k before) in
              if d = 0 then None else Some (k, d))
            after
        in
        (x, moved)
      in
      let counts = Alcotest.(list (pair (pair string string) int)) in
      let tier = Alcotest.(option string) in
      open_gate g;
      let cold = small_job 40.0 0.5 in
      let r, moved =
        delta (fun () ->
            Service.Pool.await (Service.Pool.submit pool (with_id "cold" cold)))
      in
      Alcotest.check counts "cold job"
        [ (("disk", "miss"), 1); (("memory", "miss"), 1); (("peer", "miss"), 1) ]
        moved;
      Alcotest.check tier "cold tier" None (tier_of r);
      let r, moved =
        delta (fun () ->
            Service.Pool.poll (Service.Pool.submit pool (with_id "again" cold)))
      in
      Alcotest.check counts "memory hit" [ (("memory", "hit"), 1) ] moved;
      (match r with
      | Some r -> Alcotest.check tier "memory tier" (Some "memory") (tier_of r)
      | None -> Alcotest.fail "memory hit not answered at submit");
      let on_disk = small_job 80.0 0.5 in
      Hashtbl.replace disk (Service.Job.fingerprint on_disk)
        (Lazy.force solved_outcome);
      let r, moved =
        delta (fun () -> Service.Pool.poll (Service.Pool.submit pool on_disk))
      in
      Alcotest.check counts "disk hit"
        [ (("disk", "hit"), 1); (("memory", "miss"), 1) ]
        moved;
      (match r with
      | Some r -> Alcotest.check tier "disk tier" (Some "disk") (tier_of r)
      | None -> Alcotest.fail "disk hit not answered at submit");
      (* A duplicate submitted while its twin is still with the worker
         misses locally, queues, and hits memory once the twin lands. *)
      close_gate g;
      let twin = small_job 80.0 1.0 in
      let (a, b), moved =
        delta (fun () ->
            let a = Service.Pool.submit pool (with_id "twin" twin) in
            wait_entered g 1;
            let b = Service.Pool.submit pool (with_id "dup" twin) in
            Alcotest.(check bool) "duplicate queued" true
              (Service.Pool.poll b = None);
            open_gate g;
            (Service.Pool.await a, Service.Pool.await b))
      in
      Alcotest.check counts "duplicate behind its twin"
        [ (("disk", "miss"), 1); (("memory", "hit"), 1);
          (("memory", "miss"), 1); (("peer", "miss"), 1) ]
        moved;
      Alcotest.check tier "twin tier" None (tier_of a);
      Alcotest.check tier "duplicate tier" (Some "memory") (tier_of b);
      (* A peer's GET /cache/<fp> never consults remote tiers. *)
      let peers = entered g in
      let _, moved =
        delta (fun () ->
            Service.Tiered.find_local tiered (Service.Job.fingerprint twin))
      in
      Alcotest.check counts "find_local hit" [ (("memory", "hit"), 1) ] moved;
      let _, moved =
        delta (fun () -> Service.Tiered.find_local tiered "no-such-plan")
      in
      Alcotest.check counts "find_local miss"
        [ (("disk", "miss"), 1); (("memory", "miss"), 1) ]
        moved;
      Alcotest.(check int) "find_local skips the peer tier" peers (entered g))

let test_pool_full_queue_answers_hits () =
  (* One worker held in the peer tier and one job queued behind it fill
     a queue of one: a local miss is refused, local hits are answered. *)
  let disk = Hashtbl.create 4 and g = gate max_int in
  Service.Pool.with_pool ~workers:1 ~queue_capacity:1
    ~tiers:[ table_tier disk; gate_tier g ]
    (fun pool ->
      Fun.protect ~finally:(fun () -> open_gate g) @@ fun () ->
      let o = Lazy.force solved_outcome in
      let in_memory = small_job 40.0 0.0 and on_disk = small_job 40.0 1.0 in
      Service.Tiered.add (Service.Pool.tiered pool) ~capped:false
        (Service.Job.fingerprint in_memory) o;
      Hashtbl.replace disk (Service.Job.fingerprint on_disk) o;
      let held = Service.Pool.submit pool (small_job 0.0 0.0) in
      wait_entered g 1;
      let queued = Service.Pool.submit pool (small_job 0.0 1.0) in
      Alcotest.(check int) "queue at capacity" 1
        (Service.Pool.queue_depth pool);
      Alcotest.(check bool) "a local miss is refused" true
        (Service.Pool.try_submit pool (small_job 80.0 0.0) = None);
      let answered job =
        match Service.Pool.try_submit pool job with
        | None -> Alcotest.fail "a local hit was refused on a full queue"
        | Some ticket -> (
            match Service.Pool.poll ticket with
            | Some r -> tier_of r
            | None -> Alcotest.fail "a local hit was queued")
      in
      Alcotest.(check (option string)) "memory hit answered" (Some "memory")
        (answered in_memory);
      Alcotest.(check (option string)) "disk hit answered" (Some "disk")
        (answered on_disk);
      open_gate g;
      ignore (Service.Pool.await held);
      ignore (Service.Pool.await queued))

(* The domains the pool's ["job"] trace events were emitted on. *)
let job_domains () =
  let m = Mutex.create () and seen = ref [] in
  let trace =
    Service.Trace.observer (fun fields ->
        if List.assoc_opt "event" fields = Some (Service.Json.Str "job") then begin
          Mutex.lock m;
          seen := (Domain.self () :> int) :: !seen;
          Mutex.unlock m
        end)
  in
  let domains () =
    Mutex.lock m;
    let l = List.sort_uniq compare !seen in
    Mutex.unlock m;
    l
  in
  (trace, domains)

let test_pool_worker0_shares_domain () =
  let self = (Domain.self () :> int) in
  List.iter
    (fun workers ->
      let trace, domains = job_domains () in
      Service.Pool.with_pool ~workers ~trace (fun pool ->
          let r =
            Service.Pool.await (Service.Pool.submit pool (small_job 40.0 0.5))
          in
          Alcotest.(check bool) "cold job solved" false r.Service.Pool.cache_hit);
      Alcotest.(check (list int))
        (Printf.sprintf "workers=%d: solved on the creator's domain" workers)
        [ self ] (domains ()))
    [ 0; 1 ]

let test_pool_two_workers_two_domains () =
  if Domain.recommended_domain_count () < 2 then Alcotest.skip ();
  (* The gate lets no worker through until both hold a job, so each
     worker solves one of the two. *)
  let g = gate 2 in
  let trace, domains = job_domains () in
  Service.Pool.with_pool ~workers:2 ~trace ~tiers:[ gate_tier g ] (fun pool ->
      let a = Service.Pool.submit pool (small_job 40.0 0.5) in
      let b = Service.Pool.submit pool (small_job 80.0 0.5) in
      ignore (Service.Pool.await a);
      ignore (Service.Pool.await b));
  let seen = domains () in
  Alcotest.(check int) "two distinct domains" 2 (List.length seen);
  Alcotest.(check bool) "one is the creator's" true
    (List.mem (Domain.self () :> int) seen)

let test_pool_domains_first () =
  if Domain.recommended_domain_count () < 2 then Alcotest.skip ();
  (* With the domain worker idle, a lone cold job is never worker 0's:
     each one is solved off the creator's domain. *)
  let self = (Domain.self () :> int) in
  let trace, domains = job_domains () in
  Service.Pool.with_pool ~workers:2 ~trace (fun pool ->
      List.iter
        (fun (penalty, frac) ->
          let r =
            Service.Pool.await (Service.Pool.submit pool (small_job penalty frac))
          in
          Alcotest.(check bool) "cold job solved" false r.Service.Pool.cache_hit)
        [ (0.0, 0.0); (0.0, 1.0); (80.0, 0.0); (80.0, 1.0) ]);
  let seen = domains () in
  Alcotest.(check bool) "jobs traced" true (seen <> []);
  Alcotest.(check bool) "never on the creator's domain" false
    (List.mem self seen)

let test_pool_shutdown_drains () =
  (* The one worker is held in the gate with three jobs queued behind
     it; a shutdown that starts before the gate opens still serves all
     four, and refuses later submissions. *)
  let g = gate max_int in
  Service.Pool.with_pool ~workers:1 ~queue_capacity:3 ~tiers:[ gate_tier g ]
    (fun pool ->
      Fun.protect ~finally:(fun () -> open_gate g) @@ fun () ->
      let held = Service.Pool.submit pool (small_job 0.0 0.0) in
      wait_entered g 1;
      let queued =
        List.map
          (fun (penalty, frac) ->
            Service.Pool.submit pool (small_job penalty frac))
          [ (0.0, 1.0); (80.0, 0.0); (80.0, 1.0) ]
      in
      Alcotest.(check int) "three queued" 3 (Service.Pool.queue_depth pool);
      let stopper = Thread.create Service.Pool.shutdown pool in
      (* The queue is full, so until the shutdown closes the pool a
         further local miss is refused without being queued. *)
      let rec until_closed () =
        match Service.Pool.try_submit pool (small_job 40.0 0.5) with
        | None ->
            Thread.yield ();
            until_closed ()
        | Some _ -> Alcotest.fail "a miss was queued on a full queue"
        | exception Invalid_argument _ -> ()
      in
      until_closed ();
      open_gate g;
      Thread.join stopper;
      List.iter
        (fun ticket ->
          match Service.Pool.poll ticket with
          | Some r ->
              Alcotest.(check bool) "solved" true
                (r.Service.Pool.code = Service.Pool.Solved)
          | None -> Alcotest.fail "a ticket was left unresolved")
        (held :: queued);
      Alcotest.check_raises "submit after shutdown"
        (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
          ignore (Service.Pool.submit pool (small_job 0.0 0.0))))

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: non-finite numbers" `Quick test_json_non_finite;
    Alcotest.test_case "json: \\u escapes and surrogate pairs" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "metrics: concurrent domains" `Quick
      test_metrics_concurrent;
    Alcotest.test_case "metrics: fed from trace spans" `Quick
      test_metrics_trace_feed;
    Alcotest.test_case "fingerprint: permutation-insensitive" `Quick
      test_fingerprint_permutation;
    Alcotest.test_case "fingerprint: delivery fields excluded" `Quick
      test_fingerprint_ignores_delivery;
    Alcotest.test_case "cache: LRU eviction" `Quick test_cache_eviction;
    Alcotest.test_case "cache: zero capacity" `Quick test_cache_disabled;
    Alcotest.test_case "pool: parallel equals sequential" `Slow
      test_pool_parallel_equals_sequential;
    Alcotest.test_case "pool: 1000 tiny jobs, 4 workers, in order" `Slow
      test_pool_thousand_tiny_jobs;
    Alcotest.test_case "pool: cache hit on repeat" `Quick
      test_cache_hit_on_repeat;
    Alcotest.test_case "pool: zero deadline degrades" `Quick
      test_degraded_deadline;
    Alcotest.test_case "pool: capped budget not cached" `Quick
      test_capped_budget_not_cached;
    Alcotest.test_case "pool: no degradation means failure" `Quick
      test_failed_without_degradation;
    Alcotest.test_case "batch: writer failure winds the stream down" `Quick
      test_batch_writer_failure;
    Alcotest.test_case "batch: NDJSON stream alignment" `Slow
      test_batch_stream_alignment;
    Alcotest.test_case "fingerprint: pinned literal" `Quick
      test_fingerprint_pinned;
    Alcotest.test_case "fingerprint: unknown milp keys ignored" `Quick
      test_unknown_milp_keys_ignored;
    Alcotest.test_case "pool: lookups counted once per tier" `Quick
      test_pool_lookup_counts;
    Alcotest.test_case "pool: a full queue still answers local hits" `Quick
      test_pool_full_queue_answers_hits;
    Alcotest.test_case "pool: worker 0 shares the creator's domain" `Quick
      test_pool_worker0_shares_domain;
    Alcotest.test_case "pool: two workers, two domains" `Quick
      test_pool_two_workers_two_domains;
    Alcotest.test_case "pool: domain workers take misses first" `Quick
      test_pool_domains_first;
    Alcotest.test_case "pool: shutdown serves the backlog" `Quick
      test_pool_shutdown_drains;
    Alcotest.test_case "batch: a DR job takes no fixed charges" `Quick
      test_dr_fixed_charges_rejected;
    Alcotest.test_case "keys: hex floats match Printf %h" `Quick
      test_hex_floats_match_printf;
    Alcotest.test_case "json: numbers match the Printf forms" `Quick
      test_number_to_string_matches_printf;
  ]
