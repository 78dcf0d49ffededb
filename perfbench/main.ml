(* perfbench: drives the etransform_server binary with one seeded
   workload, checks every served plan, and prints one JSON result line.

     main.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1

   Usually invoked through perfbench/run.py, which builds both binaries
   first.  A human-readable report goes to stderr; the last stdout line is
   the JSON result. *)

open Perfbench

let now = Span.now

(* ------------------------------------------------------- configuration *)

type config = {
  parts : int;       (** server processes per run *)
  cache : int;       (** server --cache *)
  disk : bool;       (** server --cache-dir *)
  tail_q : float;    (** reported tail percentile *)
  scored : int;      (** leading distinct jobs scored for plan_cost_ratio *)
  per_second : float;
      (** requests measured per --seconds in the CPU-timed loop: a run
          measures a fixed amount of work, sized to take about --seconds
          on a 2-vCPU VM *)
  wall_per_second : float;  (** the same for the wall-clock loop *)
  ladder : (float * float list * float) option;
      (** open-loop diagnostics of the traced run: fixed rate, ladder
          rates, p90 limit in ms *)
}

let config = function
  | Gen.Hot_hits ->
      {
        parts = 9;
        cache = Gen.hot_cache;
        disk = false;
        tail_q = 0.99;
        scored = Gen.hot_set_size;
        per_second = 6000.0;
        wall_per_second = 2400.0;
        ladder = Some (2000.0, List.init 11 (fun k -> 4000.0 +. (1000.0 *. float k)), 1.0);
      }
  | Gen.Tier_churn ->
      {
        parts = 9;
        cache = Gen.churn_cache;
        disk = true;
        tail_q = 0.99;
        scored = Gen.churn_set_size;
        per_second = 6000.0;
        wall_per_second = 2400.0;
        ladder = Some (1000.0, List.init 11 (fun k -> 2000.0 +. (1000.0 *. float k)), 5.0);
      }
  | Gen.Cold_plans ->
      {
        parts = 9;
        cache = 256;
        disk = true;
        tail_q = 0.90;
        scored = 100;
        per_second = 72.0;
        wall_per_second = 36.0;
        ladder = None;
      }
  | Gen.Estate_plans ->
      {
        parts = 3;
        cache = 256;
        disk = true;
        tail_q = 0.75;
        scored = 40;
        per_second = 3.2;
        wall_per_second = 1.6;
        ladder = None;
      }

let server_args cfg ~dir =
  [ "--workers"; "1"; "--reactor-shards"; "1"; "--drain-timeout"; "2"; "--cache";
    string_of_int cfg.cache ]
  @ if cfg.disk then [ "--cache-dir"; dir ] else []

(* Server set-ups per run. *)
let setup_count = 7

(* Time of one calibration slice that the timed metrics are expressed
   at: about what it takes on an idle 2-vCPU VM. *)
let reference_slice_ms = 1.0

(* Longest request sequence a run draws from. *)
let max_requests = 1_000_000

(* Requests in a measured loop: [per_second] of them per second asked
   for, at least enough for [q], and within the request sequence; rounded
   up so that each server process gets whole deck cycles. *)
let measured_count cfg w ~per_second ~q seconds =
  let unit = cfg.parts * Gen.block w in
  let n =
    max (Load.min_samples q) (min (max_requests / 4) (int_of_float (per_second *. seconds)))
  in
  unit * ((n + unit - 1) / unit)

(* ------------------------------------------------------------- helpers *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p p =
  if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    Sys.mkdir p 0o755
  end

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let post (job : Gen.job) = Client.post_bytes ~path:"/solve" job.Gen.body

let max_of a = Array.fold_left Float.max 0.0 a

(* ------------------------------------------------- open-loop diagnostics *)

(* The fixed-rate phase then the rate ladder, climbed [climbs] times;
   sustained_rps is the median over climbs of the highest rate whose
   windowed p90 meets [limit] without a growing backlog, interpolated
   linearly between the last passing and the first failing step. *)
let climbs = 3

let open_loop_phase ~port ~seconds ~first ~request (fixed_rate, ladder, limit) =
  let fixed = Load.open_loop ~port ~rate:fixed_rate ~duration:(0.2 *. seconds) ~first ~request in
  let answers = ref [ fixed ] in
  let step = 0.3 *. seconds /. float (climbs * List.length ladder) in
  let next = ref (first + Array.length fixed) in
  let climb c =
    let rec go prev = function
      | [] -> Option.fold ~none:0.0 ~some:fst prev
      | rate :: rest ->
          let a = Load.open_loop ~port ~rate ~duration:step ~first:!next ~request in
          next := !next + Array.length a;
          answers := a :: !answers;
          let lat = Array.map Load.latency_ms a in
          let tail =
            match Load.windowed_quantile lat 0.9 with
            | Some (v, _) -> v
            | None -> fst (Load.quantile lat 0.9)
          in
          let n = Array.length a in
          let backlog = Load.median (Array.map Load.lateness_ms (Array.sub a (n * 9 / 10) (n - (n * 9 / 10)))) in
          let ok = tail <= limit && backlog <= limit in
          log "  climb %d %6.0f/s: p90 %.3f ms (%d samples), backlog %.3f ms -> %s" c rate tail n
            backlog (if ok then "meets" else "misses");
          if ok then go (Some (rate, tail)) rest
          else (
            match prev with
            | None -> rate *. Float.min 1.0 (limit /. tail)
            | Some (r0, t0) -> r0 +. ((rate -. r0) *. Float.max 0.0 ((limit -. t0) /. (tail -. t0))))
    in
    go None ladder
  in
  let sustained = Load.median (Array.init climbs climb) in
  let lat = Array.map Load.latency_ms fixed in
  let late = Array.map Load.lateness_ms fixed in
  let q p = fst (Load.quantile lat p) in
  log "  open loop %.0f/s: p50 %.3f ms, p99 %.3f ms (%d samples, %d beyond p99); sustained %.0f/s"
    fixed_rate (q 0.5) (q 0.99) (Array.length lat) (snd (Load.quantile lat 0.99)) sustained;
  (Array.concat (List.rev !answers), sustained, late)

(* ------------------------------------------------------------ workload *)

type outcome = {
  e2e : (string * string * float * int) list;  (** name, unit, value, samples *)
  layers : (string * string * float) list;
  attempted : int;
  failed : int;
}

let run ~exe ~root ~w ~seed ~seconds ~trace =
  let cfg = config w in
  let tag = Printf.sprintf "%s-%d" (Gen.name w) seed in
  let workdir = Filename.concat root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  mkdir_p workdir;
  Fun.protect ~finally:(fun () -> rm_rf workdir) @@ fun () ->
  let checks = Checks.create () in
  (* Generation: inputs from the seed alone, before any timing. *)
  let warm = Gen.warmup seed w in
  let warm_fps = Hashtbl.create 512 in
  Array.iter (fun (j : Gen.job) -> Hashtbl.replace warm_fps j.Gen.fp ()) warm;
  let memo = Hashtbl.create 1024 in
  let memoize key make =
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        let v = make () in
        Hashtbl.replace memo key v;
        v
  in
  let request_job =
    match w with
    | Gen.Cold_plans | Gen.Estate_plans -> fun i -> memoize i (fun () -> Gen.fresh seed w i)
    | Gen.Hot_hits | Gen.Tier_churn ->
        let set = Gen.working_set seed w in
        let draws = Gen.open_requests seed w max_requests in
        fun i ->
          match draws.(i) with
          | Gen.Set k -> set.(k)
          | Gen.Fresh k -> memoize (-1 - k) (fun () -> Gen.fresh seed w k)
  in
  let bytes_memo = Hashtbl.create 1024 in
  let request_bytes i =
    let job = request_job i in
    match Hashtbl.find_opt bytes_memo job.Gen.fp with
    | Some b -> b
    | None ->
        let b = post job in
        Hashtbl.replace bytes_memo job.Gen.fp b;
        b
  in
  let expect_cache (job : Gen.job) =
    match w with
    | Gen.Hot_hits -> "hit"
    | Gen.Tier_churn -> if Hashtbl.mem warm_fps job.Gen.fp then "hit" else "miss"
    | Gen.Cold_plans | Gen.Estate_plans -> "miss"
  in
  let check i status body =
    let job = request_job i in
    Checks.response checks ~job ~expect_cache:(expect_cache job) ~status ~body
  in
  (* The measurement runs on [parts] server processes in turn, each
     set up afresh (spawn until healthy, then the warm-up requests, each
     answered by a fresh solve) and then sent its share of the measured
     requests between two /metrics scrapes: first a closed loop on one
     connection timed by the server's CPU time, then a closed loop on
     [Load.connections] connections timed by the wall clock.  Spreading
     the requests over processes averages out how fast one process
     happens to run.  The traced run adds the open-loop diagnostics on
     the last one. *)
  let parts = cfg.parts in
  let count = measured_count cfg w ~per_second:cfg.per_second ~q:cfg.tail_q seconds in
  let wall_count = measured_count cfg w ~per_second:cfg.wall_per_second ~q:0.5 seconds in
  let share total k = (total * (k + 1) / parts) - (total * k / parts) in
  let calib_every = max 1 (Gen.block w / 8) in
  let max_duration = Float.min 50.0 (Float.max 30.0 (2.0 *. seconds)) in
  let sent = ref 0 in
  let store k = Filename.concat workdir (Printf.sprintf "store-%d" k) in
  (* Spawn until healthy, then the warm-up requests: the set-up time. *)
  let set_up k =
    let t0 = now () in
    let srv =
      Server_proc.start ~exe
        ~log:(Filename.concat workdir (Printf.sprintf "server-%d.log" k))
        ~args:(server_args cfg ~dir:(store k))
    in
    match
      let c = Client.connect srv.Server_proc.port in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          Array.map (fun j -> (j, Client.exchange c (post j))) warm)
    with
    | answers ->
        let setup_s = now () -. t0 in
        Array.iter
          (fun (job, (status, body)) ->
            Checks.response checks ~job ~expect_cache:"miss" ~status ~body)
          answers;
        (srv, setup_s)
    | exception e ->
        Server_proc.stop srv;
        raise e
  in
  let part k =
    let srv, setup_s = set_up k in
    Fun.protect ~finally:(fun () -> Server_proc.stop srv) @@ fun () ->
    let port = srv.Server_proc.port in
    let before = Server_proc.scrape srv in
    let first = !sent in
    let cpu, close_cpu = Server_proc.cpu_clock [ srv.Server_proc.pid ] in
    let loop =
      Fun.protect ~finally:close_cpu (fun () ->
          Load.closed_loop ~port ~count:(share count k) ~max_duration ~cpu ~calib_every
            ~first:!sent
            ~request:request_bytes ~on_answer:check ())
    in
    sent := !sent + Array.length loop.Load.cpu_ms;
    let conc =
      Load.concurrent_loop ~port ~conns:Load.connections ~count:(share wall_count k) ~max_duration
        ~calib_every ~first:!sent ~request:request_bytes ~on_answer:check ()
    in
    sent := !sent + Array.length conc.Load.latency_ms;
    log "  process %d: calibration slice %.4f ms (%d slices); as measured: cpu p50 %.4f ms (%d samples), %d-connection wall p50 %.4f ms (%d samples)"
      k
      (Load.median (Array.append loop.Load.cal_ms conc.Load.conc_cal_ms))
      (Array.length loop.Load.cal_ms + Array.length conc.Load.conc_cal_ms)
      (Load.median loop.Load.cpu_ms) (Array.length loop.Load.cpu_ms) Load.connections
      (Load.median conc.Load.latency_ms) (Array.length conc.Load.latency_ms);
    let after = Server_proc.scrape srv in
    let open_loop =
      match cfg.ladder with
      | Some l when trace && k = parts - 1 ->
          let a, sustained, late =
            open_loop_phase ~port ~seconds ~first:!sent ~request:request_bytes l
          in
          Array.iter (fun s -> check s.Load.idx s.Load.status s.Load.body) a;
          sent := !sent + Array.length a;
          Some (sustained, late)
      | _ -> None
    in
    (store k, setup_s, before, after, (first, loop, conc), Server_proc.peak_rss_mb srv, open_loop)
  in
  let runs = List.init parts part in
  (* More set-ups than measured processes, so that setup_s is a median
     of [setup_count] samples on every workload. *)
  let extra_setups =
    List.init (max 0 (setup_count - parts)) (fun j ->
        let srv, s = set_up (parts + j) in
        Server_proc.stop srv;
        s)
  in
  let store_dirs = List.map (fun (d, _, _, _, _, _, _) -> d) runs in
  let setups = List.map (fun (_, s, _, _, _, _, _) -> s) runs in
  let loops = List.map (fun (_, _, _, _, (_, l, _), _, _) -> l) runs in
  let concs = List.map (fun (_, _, _, _, (_, _, c), _, _) -> c) runs in
  let rss = Load.median (Array.of_list (List.map (fun (_, _, _, _, _, r, _) -> r) runs)) in
  let cat f = Array.concat (List.map f loops) in
  let lat = cat (fun l -> l.Load.cpu_ms) and wall = cat (fun l -> l.Load.wall_ms) in
  let conc_lat = Array.concat (List.map (fun c -> c.Load.latency_ms) concs) in
  (* Host-speed calibration: each process's timings are divided by the
     median time of the calibration slices run beside them and expressed
     at [reference_slice_ms] per slice.  A slow spell of the shared host
     then moves the timed metrics far less than the raw times: over five
     seeds, the spread of tier_churn's cpu_p50_ms fell from 0.25 to 0.03. *)
  let speed =
    List.map (fun (l, c) -> reference_slice_ms /. Load.median (Array.append l.Load.cal_ms c.Load.conc_cal_ms))
      (List.combine loops concs)
  in
  let scaled f = List.map2 (fun x k -> Array.map (fun v -> v *. k) (f x)) in
  (* A timed metric is the median over processes of each process's own
     figure, so one process that ran during a slow spell of the host
     cannot move it; where one process has too few samples for the
     percentile, the percentile of all processes' samples pooled. *)
  let across per_process q =
    let qs = List.map (fun a -> Load.quantile a q) per_process in
    if List.for_all (fun (_, beyond) -> beyond >= Load.min_beyond) qs then
      (Load.median (Array.of_list (List.map fst qs)), "median over processes")
    else (fst (Load.quantile (Array.concat per_process) q), "pooled")
  in
  let cpu = scaled (fun l -> l.Load.cpu_ms) loops speed in
  let cpu_p50, _ = across cpu 0.5 in
  let cpu_tail, tail_how = across cpu cfg.tail_q in
  let wall_p50, wall_how = across (scaled (fun c -> c.Load.latency_ms) concs speed) 0.5 in
  let wall_rate =
    Load.median
      (Array.of_list
         (List.map2 (fun c k -> Load.median (Load.block_rates c (Gen.block w)) /. k) concs speed))
  in
  let elapsed = List.fold_left (fun a l -> a +. l.Load.elapsed) 0.0 loops in
  (* The generator's sustained rate and lateness: the open-loop ladder
     where the workload has one, else the one-connection closed loop. *)
  let sustained, late =
    match List.filter_map (fun (_, _, _, _, _, _, o) -> o) runs with
    | o :: _ -> o
    | [] -> (float (Array.length lat) /. elapsed, cat (fun l -> l.Load.gaps_ms))
  in
  (* Plan checks over every distinct served job, in first-served order. *)
  let served =
    let seen = Hashtbl.create 256 in
    let out = ref [] in
    let add (j : Gen.job) =
      if not (Hashtbl.mem seen j.Gen.fp) then begin
        Hashtbl.replace seen j.Gen.fp ();
        out := j :: !out
      end
    in
    (match w with Gen.Hot_hits | Gen.Tier_churn -> Array.iter add warm | _ -> ());
    for i = 0 to !sent - 1 do
      add (request_job i)
    done;
    List.rev !out
  in
  let stores = if cfg.disk then List.map (fun dir -> Cluster.Store.open_ ~dir) store_dirs else [] in
  let stored fp =
    List.find_map (fun st -> Option.bind (Cluster.Store.find st fp) Cluster.Codec.decode) stores
  in
  (match w with
  | Gen.Cold_plans | Gen.Estate_plans ->
      (* The warm-up plans are checked, not scored. *)
      ignore (Checks.plans checks ~jobs:(Array.to_list warm) ~stored)
  | Gen.Hot_hits | Gen.Tier_churn -> ());
  let scored = List.filteri (fun i _ -> i < cfg.scored) served in
  let reference = Checks.plans checks ~jobs:scored ~stored in
  ignore (Checks.plans checks ~jobs:(List.filteri (fun i _ -> i >= cfg.scored) served) ~stored);
  List.iter Cluster.Store.close stores;
  (* One ledger per server build: a change that alters plans starts a new
     one instead of failing against the old build's plans. *)
  Checks.ledger checks
    ~path:
      (Filename.concat root
         (Printf.sprintf "ledger-%s-%s.txt" tag (String.sub (Digest.to_hex (Digest.file exe)) 0 12)));
  (* End-to-end metrics. *)
  let attempted = checks.Checks.checked in
  let failed = checks.Checks.failed in
  let n = Array.length lat in
  let beyond = snd (Load.quantile lat cfg.tail_q) in
  if beyond < Load.min_beyond then
    failwith (Printf.sprintf "only %d samples beyond p%g" beyond (cfg.tail_q *. 100.0));
  if snd (Load.quantile conc_lat 0.5) < Load.min_beyond then
    failwith (Printf.sprintf "only %d wall-clock samples" (Array.length conc_lat));
  let e2e =
    [
      ("cpu_p50_ms", "ms", cpu_p50, n);
      ("cpu_tail_ms", "ms", cpu_tail, n);
      ("wall_p50_ms", "ms", wall_p50, Array.length conc_lat);
      ("wall_rate_per_s", "1/s", wall_rate, Array.length conc_lat);
      ( "plan_cost_ratio", "ratio", reference.Checks.served_sum /. reference.Checks.greedy_sum,
        List.length scored );
      ("ok_frac", "ratio", float (attempted - failed) /. float attempted, attempted);
      ( "setup_s", "s",
        (let k = Load.median (Array.of_list speed) in
         Load.median
           (Array.of_list (List.map2 ( *. ) setups speed @ List.map (fun s -> s *. k) extra_setups))),
        max setup_count parts );
      ("peak_rss_mb", "MiB", rss, parts);
    ]
  in
  log "%s seed %d: cpu_tail_ms is p%g (%s) over %d samples (%d beyond); wall_p50_ms %s; \
       %d distinct plans checked; plan digest %s over the first %d"
    (Gen.name w) seed (cfg.tail_q *. 100.0) tail_how n beyond wall_how (List.length served)
    reference.Checks.digest (List.length scored);
  log "  one-connection loop by the wall clock: p50 %.4f ms, p%g %.4f ms, %.2f requests/s over %.1f s"
    (Load.median wall) (cfg.tail_q *. 100.0) (fst (Load.quantile wall cfg.tail_q))
    (float n /. elapsed) elapsed;
  log "  %d-connection loop: p50 %.4f ms, p90 %.4f ms over %d samples"
    Load.connections (Load.median conc_lat) (fst (Load.quantile conc_lat 0.9)) (Array.length conc_lat);
  (* Server CPU time per job class of the solve workloads. *)
  (match w with
  | Gen.Cold_plans | Gen.Estate_plans ->
      let by_cls = Hashtbl.create 16 in
      List.iter
        (fun (_, _, _, _, (first, l, _), _, _) ->
          Array.iteri
            (fun j ms ->
              let c = (request_job (first + j)).Gen.cls in
              Hashtbl.replace by_cls c (ms :: Option.value (Hashtbl.find_opt by_cls c) ~default:[]))
            l.Load.cpu_ms)
        runs;
      Hashtbl.fold (fun c l acc -> (c, Array.of_list l) :: acc) by_cls []
      |> List.sort (fun (_, a) (_, b) -> compare (Load.median a) (Load.median b))
      |> List.iter (fun (c, a) ->
             log "  class %-18s cpu p50 %10.3f ms, max %10.3f ms (%d samples)" c (Load.median a)
               (max_of a) (Array.length a))
  | Gen.Hot_hits | Gen.Tier_churn -> ());
  List.iter (fun e -> log "  check failed: %s" e) (List.rev checks.Checks.errors);
  (* Per-layer metrics: /metrics deltas and the traced replay. *)
  let layers =
    if not trace then []
    else begin
      let d ?labels name =
        List.fold_left
          (fun acc (_, _, before, after, _, _, _) ->
            acc +. Server_proc.sum after ?labels name -. Server_proc.sum before ?labels name)
          0.0 runs
      in
      let ratio a b = if b > 0.0 then a /. b else 0.0 in
      let solve = [ ("route", "/solve") ] in
      let lookups tier result =
        d ~labels:[ ("tier", tier); ("result", result) ] "etransform_cache_lookups_total"
      in
      let hit_ratio tier = ratio (lookups tier "hit") (lookups tier "hit" +. lookups tier "miss") in
      let scraped =
        [
          ( "server.request_ms", "ms",
            1e3
            *. ratio (d ~labels:solve "etransform_http_request_seconds_sum")
                 (d ~labels:solve "etransform_http_request_seconds_count") );
          ( "server.rejected", "count",
            d ~labels:[ ("route", "/solve"); ("status", "503") ] "etransform_http_requests_total" );
          ( "service.queue_ms", "ms",
            1e3 *. ratio (d "etransform_job_queue_seconds_sum") (d "etransform_job_queue_seconds_count") );
          ("service.hit_ratio_memory", "ratio", hit_ratio "memory");
          ("service.hit_ratio_disk", "ratio", hit_ratio "disk");
          ( "service.evictions_per_req", "ratio",
            ratio (d "etransform_cache_evictions_total") (d ~labels:solve "etransform_http_requests_total") );
        ]
      in
      let warm_replay =
        match w with
        | Gen.Hot_hits | Gen.Tier_churn -> Array.mapi (fun i j -> (-1 - i, post j)) warm
        | Gen.Cold_plans | Gen.Estate_plans -> [||]
      in
      let replayed, accounted_ms, spans =
        Replay.run ~workdir ~cache_capacity:cfg.cache ~disk:cfg.disk ~budget:(seconds /. 4.0)
          ~cls:(fun req -> (if req >= 0 then request_job req else warm.(-1 - req)).Gen.cls)
          ~warm:warm_replay
          ~requests:(Array.init (min n 20_000) (fun i -> (i, request_bytes i)))
      in
      Span.write spans (Filename.concat root (Printf.sprintf "spans-%s.jsonl" tag));
      scraped @ replayed
      @ [
          ("trace.accounted_share", "ratio", accounted_ms /. Load.median lat);
          ("trace.accounted_share_wall", "ratio", accounted_ms /. Load.median conc_lat);
          ("loadgen.sustained_rps", "1/s", sustained);
          ("loadgen.lateness_p50_ms", "ms", Load.median late);
          ("loadgen.lateness_max_ms", "ms", max_of late);
        ]
    end
  in
  { e2e; layers; attempted; failed }

(* ------------------------------------------------------------------ CLI *)

let () =
  let server = ref "" and workload = ref "" and seed = ref 1 and seconds = ref nan
  and trace = ref 0 and root = ref ".perfbench" in
  Arg.parse
    [
      ("--server", Arg.Set_string server, "PATH etransform_server binary");
      ("--workload", Arg.Set_string workload, "NAME hot_hits|tier_churn|cold_plans|estate_plans");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced replay");
      ("--workdir", Arg.Set_string root, "DIR scratch, ledger and span directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let w =
    match Gen.of_name !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if Float.is_nan !seconds || !seconds <= 0.0 then begin
    prerr_endline "--seconds S is required";
    exit 2
  end;
  mkdir_p !root;
  let r = run ~exe:!server ~root:!root ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  List.iter (fun (n, u, v, k) -> log "  %-16s %14.6f %-6s (%d samples)" n v u k) r.e2e;
  List.iter (fun (n, u, v) -> log "  %-28s %14.6f %s" n v u) r.layers;
  let metrics =
    if !trace = 1 then r.layers else List.map (fun (n, u, v, _) -> (n, u, v)) r.e2e
  in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          metrics));
  exit (if r.failed = 0 then 0 else 1)
