(* Traced in-process replay: the workload's requests pass through each
   layer's public functions in the order the server calls them, with a
   span around every call.  The server itself is never traced; its
   end-to-end numbers come from the untraced run. *)

open Etransform
module S = Service

let builder (job : S.Job.t) =
  {
    Lp_builder.default_options with
    Lp_builder.economies_of_scale = job.S.Job.economies_of_scale;
    fixed_charges = job.S.Job.fixed_charges;
    omega = job.S.Job.omega;
  }

(* The engine call exactly as the pool makes it for jobs with the paper's
   failure model (every generated job). *)
let engine (job : S.Job.t) asis =
  let milp = S.Job.milp_options job in
  if job.S.Job.dr then
    Dr_planner.plan
      ~options:
        {
          Dr_planner.default_options with
          Dr_planner.milp;
          omega = job.S.Job.omega;
          economies_of_scale = job.S.Job.economies_of_scale;
          reserve =
            Option.value job.S.Job.reserve ~default:Dr_planner.default_options.Dr_planner.reserve;
        }
      asis
  else Solver.consolidate ~builder:(builder job) ~milp asis

let source s =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

let discard = Server.Http.out_of_sink (fun _ _ len -> len)

let result job fp outcome ~hit =
  {
    S.Pool.job;
    fingerprint = fp;
    outcome = Some outcome;
    code = S.Pool.Solved;
    reason = None;
    cache_hit = hit;
    cache_tier = (if hit then Some "memory" else None);
    queue_s = 0.0;
    build_s = 0.0;
    solve_s = 0.0;
  }

type layers = {
  spans : Span.t;
  outcomes : (string, Solver.outcome) Hashtbl.t;
  milp_stats : (int * int) list ref;  (** (nodes, lp_iterations) per probe *)
  local_moves : int list ref;
}

(* One request along the server's path: parse, decode, fingerprint,
   tiered lookup, on a miss estate build and engine, render, write. *)
let request l ~front ~req bytes =
  let sp = l.spans in
  Span.record sp ~req "request" (fun () ->
      let body =
        Span.record sp ~req "server.parse" (fun () ->
            let conn = Server.Http.conn_of_source (source bytes) in
            match Server.Http.read_request conn with
            | Some r -> Server.Http.read_all (Server.Http.body_of_request conn r)
            | None -> failwith "replay: unparseable request")
      in
      let job =
        Span.record sp ~req "service.decode" (fun () ->
            match S.Json.parse body with
            | Error e -> failwith e
            | Ok j -> (
                match S.Batch.job_of_json ~resolve:Harness.Line_jobs.resolve j with
                | Ok job -> job
                | Error e -> failwith e))
      in
      let fp = Span.record sp ~req "service.fingerprint" (fun () -> S.Job.fingerprint job) in
      let hit = Span.record sp ~req "service.lookup" (fun () -> S.Tiered.find front fp) in
      let outcome, hit =
        match hit with
        | Some (o, _) -> (o, true)
        | None ->
            let asis = Span.record sp ~req "datasets.estate_build" (fun () -> S.Job.build_estate job) in
            let o = Span.record sp ~req "etransform.engine" (fun () -> engine job asis) in
            S.Tiered.add front ~capped:false fp o;
            Hashtbl.replace l.outcomes fp o;
            l.local_moves := o.Solver.local_moves :: !(l.local_moves);
            (o, false)
      in
      let line =
        Span.record sp ~req "service.render" (fun () ->
            S.Batch.result_to_line (result job fp outcome ~hit) ^ "\n")
      in
      Span.record sp ~req "server.write" (fun () ->
          Server.Http.respond discard ~status:200
            ~headers:[ ("Content-Type", "application/json") ]
            line))

(* The solve path of one distinct non-DR job, layer by layer: model
   build, MILP and root LP, each called as the engine calls it, between
   two runs of the whole engine.  What the engine spends beyond the model
   build and the MILP is its polish: local search from the MILP's plan,
   from the rounded relaxation while the gap is loose and from the greedy
   plan when no side constraint binds.  Timing the engine just before and
   just after its parts keeps a drift in host speed from leaking into
   that difference. *)
let solve_probe l ~req (job : S.Job.t) =
  let sp = l.spans in
  let asis = Span.record sp ~req "datasets.estate_build" (fun () -> S.Job.build_estate job) in
  if not job.S.Job.dr then begin
    let whole () = ignore (Span.record sp ~req "etransform.engine_probe" (fun () -> engine job asis)) in
    whole ();
    let built =
      Span.record sp ~req "etransform.model_build" (fun () ->
          Lp_builder.build ~options:(builder job) asis)
    in
    let milp = S.Job.milp_options job in
    let r = Span.record sp ~req "lp.milp" (fun () -> Lp.Milp.solve ~options:milp built.Lp_builder.model) in
    (* The root LP on a model of its own, so neither solve sees the
       other's state. *)
    let fresh = Lp_builder.build ~options:(builder job) asis in
    ignore
      (Span.record sp ~req "lp.root_lp" (fun () ->
           Lp.Milp.relax ~core:milp.Lp.Milp.core fresh.Lp_builder.model));
    l.milp_stats := (r.Lp.Milp.nodes, r.Lp.Milp.lp_iterations) :: !(l.milp_stats);
    whole ()
  end

(* Cache-tier probes on one distinct plan: a hit on a memory-only front,
   add and find on a disk-only front (store + codec), and the pool
   hand-off around an inline hit. *)
let tier_probes l ~req ~memory ~disk ~pool job fp outcome =
  let sp = l.spans in
  S.Tiered.add memory ~capped:false fp outcome;
  ignore (Span.record sp ~req "service.lookup_memory" (fun () -> S.Tiered.find memory fp));
  Span.record sp ~req "cluster.disk_add" (fun () -> S.Tiered.add disk ~capped:false fp outcome);
  ignore (Span.record sp ~req "cluster.disk_find" (fun () -> S.Tiered.find disk fp));
  S.Tiered.add (S.Pool.tiered pool) ~capped:false fp outcome;
  ignore
    (Span.record sp ~req "service.submit_await" (fun () ->
         S.Pool.await (S.Pool.submit pool job)))

let median_of a = if Array.length a = 0 then nan else Load.median a

(* Per probed job: (request id, engine, model build, MILP) seconds from
   its solve probe, the engine the mean of its two runs there. *)
let split_engine (sp : Span.t) =
  let dur = Hashtbl.create 256 in
  List.iter
    (fun (s : Span.span) -> Hashtbl.add dur (s.Span.name, s.Span.req) (s.Span.stop -. s.Span.start))
    sp.Span.spans;
  List.filter_map
    (fun (s : Span.span) ->
      if s.Span.name <> "lp.milp" then None
      else
        let d name = Hashtbl.find_all dur (name, s.Span.req) in
        match (d "etransform.engine_probe", d "etransform.model_build") with
        | [ e1; e2 ], [ b ] -> Some (s.Span.req, (e1 +. e2) /. 2.0, b, s.Span.stop -. s.Span.start)
        | _ -> None)
    sp.Span.spans

(* Shares of the engine's time: the MILP's and the polish's, summed over
   probed jobs, logged per job class and returned over all of them. *)
let engine_shares ~cls split =
  let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  let shares l =
    let e = sum (fun (_, e, _, _) -> e) l in
    (sum (fun (_, _, _, m) -> m) l /. e, sum (fun (_, e, b, m) -> e -. b -. m) l /. e, e)
  in
  let classes = List.sort_uniq compare (List.map (fun (r, _, _, _) -> cls r) split) in
  List.iter
    (fun c ->
      let l = List.filter (fun (r, _, _, _) -> cls r = c) split in
      let lp, polish, e = shares l in
      Printf.eprintf "  class %-18s engine %9.3f ms  lp %.2f  polish %.2f  (%d probed)\n%!" c
        (1e3 *. e /. float (List.length l)) lp polish (List.length l))
    classes;
  let lp, polish, _ = shares split in
  (lp, polish)

(* Replays [warm] then [requests] ([(request id, HTTP bytes)]) through a
   tiered front shaped like the server's, probes the distinct plans, and
   measures the tracing overhead on the hit path.  [budget] bounds the
   seconds spent replaying requests; solve probes get twice that.
   Returns (name, unit, value) triples, the span time accounted to the
   median request (ms) and the span recorder. *)
let run ~workdir ~cache_capacity ~disk ~budget ~cls ~(warm : (int * string) array)
    ~(requests : (int * string) array) =
  let l =
    { spans = Span.create (); outcomes = Hashtbl.create 64; milp_stats = ref []; local_moves = ref [] }
  in
  let node name = Cluster.Node.create ~cache_dir:(Filename.concat workdir name) ~peers:[] () in
  let front_node = if disk then Some (node "replay-front") else None in
  let front =
    S.Tiered.create ~tiers:(Option.fold ~none:[] ~some:Cluster.Node.tiers front_node) ~cache_capacity ()
  in
  (* Request path: the warm-up (set-up solves) then the measured requests. *)
  let t_end = Span.now () +. budget in
  Array.iter (fun (req, bytes) -> request l ~front ~req bytes) warm;
  let replayed = ref 0 in
  Array.iter
    (fun (req, bytes) ->
      if !replayed < 20_000 && (Span.now () < t_end || !replayed < 20) then begin
        request l ~front ~req bytes;
        incr replayed
      end)
    requests;
  (* Probes on the distinct plans, first-solved first. *)
  let firsts =
    List.sort compare
      (List.filter_map
         (fun (s : Span.span) ->
           if s.Span.name = "etransform.engine" then Some (s.Span.req, s.Span.id) else None)
         l.spans.Span.spans)
  in
  let job_of_req = Hashtbl.create 64 in
  Array.iter
    (fun (req, bytes) ->
      let conn = Server.Http.conn_of_source (source bytes) in
      match Server.Http.read_request conn with
      | Some r ->
          Hashtbl.replace job_of_req req
            (Gen.decode (Server.Http.read_all (Server.Http.body_of_request conn r)))
      | None -> ())
    (Array.append warm requests);
  let memory = S.Tiered.create ~cache_capacity:4096 () in
  let disk_node = node "replay-disk" in
  let disk_front = S.Tiered.create ~tiers:(Cluster.Node.tiers disk_node) ~cache_capacity:0 () in
  let probe_end = Span.now () +. (2.0 *. budget) in
  (* Solve probes first, while this process runs one domain as it did
     for the replayed engine calls: a second, idle domain makes every
     minor collection a stop-the-world of both, which slows an
     allocation-heavy MILP by up to 1.7x on one CPU. *)
  List.iter
    (fun (req, _) ->
      let job = Hashtbl.find job_of_req req in
      let probed = List.length !(l.milp_stats) in
      if (not job.S.Job.dr) && (probed = 0 || (probed < 200 && Span.now () < probe_end)) then
        solve_probe l ~req job)
    firsts;
  S.Pool.with_pool ~workers:1 ~cache_capacity:4096 (fun pool ->
      List.iteri
        (fun k (req, _) ->
          let job = Hashtbl.find job_of_req req in
          let fp = S.Job.fingerprint job in
          if k < 200 then
            tier_probes l ~req ~memory ~disk:disk_front ~pool job fp (Hashtbl.find l.outcomes fp))
        firsts);
  Cluster.Node.close disk_node;
  Option.iter Cluster.Node.close front_node;
  (* Tracing overhead: the hit path with the recorder on, then off. *)
  Hashtbl.iter (fun fp o -> S.Tiered.add memory ~capped:false fp o) l.outcomes;
  let sample = Array.sub requests 0 (min !replayed 500) in
  let reps = max 1 (500 / max 1 (Array.length sample)) in
  let pass on =
    l.spans.Span.on <- on;
    let t0 = Span.now () in
    for _ = 1 to reps do
      Array.iter (fun (req, bytes) -> request l ~front:memory ~req:(-req - 2) bytes) sample
    done;
    Span.now () -. t0
  in
  (* Adjacent traced and plain passes, so a drift in host speed cancels
     within each pair; the median of the pairs' ratios. *)
  let saved = l.spans.Span.spans in
  let ratios = Array.init 15 (fun _ -> let t = pass true in t /. pass false) in
  l.spans.Span.spans <- saved;
  l.spans.Span.on <- true;
  let overhead_pct = 100.0 *. (Load.median ratios -. 1.0) in
  (* Per-layer self times. *)
  let selfs = Span.self_times l.spans in
  let med name = median_of (Span.self_of selfs name) in
  let us name = med name *. 1e6 and ms name = med name *. 1e3 in
  let ints l = Array.of_list (List.map float l) in
  let request_totals =
    Array.of_list
      (List.filter_map
         (fun ((s : Span.span), _) ->
           if s.Span.name = "request" && s.Span.req >= 0 then Some (s.Span.stop -. s.Span.start) else None)
         selfs)
  in
  let handoff_us = us "service.submit_await" -. us "service.lookup_memory" in
  let split = split_engine l.spans in
  let lp_share, polish_share = engine_shares ~cls split in
  let metrics =
    [
      ("server.parse_us", "us", us "server.parse");
      ("server.write_us", "us", us "server.write");
      ("service.decode_us", "us", us "service.decode");
      ("service.fingerprint_us", "us", us "service.fingerprint");
      ("service.render_us", "us", us "service.render");
      ("service.lookup_memory_us", "us", us "service.lookup_memory");
      ("service.handoff_us", "us", handoff_us);
      ("cluster.disk_find_us", "us", us "cluster.disk_find");
      ("cluster.disk_add_us", "us", us "cluster.disk_add");
      ("datasets.estate_build_ms", "ms", ms "datasets.estate_build");
      ("etransform.model_build_ms", "ms", ms "etransform.model_build");
      ("etransform.engine_ms", "ms", ms "etransform.engine");
      ( "etransform.polish_ms", "ms",
        1e3 *. median_of (Array.of_list (List.map (fun (_, e, b, m) -> e -. b -. m) split)) );
      ("etransform.polish_share", "ratio", polish_share);
      ("etransform.local_moves", "count", median_of (ints !(l.local_moves)));
      ("lp.root_lp_ms", "ms", ms "lp.root_lp");
      ("lp.milp_ms", "ms", ms "lp.milp");
      ("lp.engine_share", "ratio", lp_share);
      ("lp.nodes", "count", median_of (ints (List.map fst !(l.milp_stats))));
      ("lp.lp_iterations", "count", median_of (ints (List.map snd !(l.milp_stats))));
      ("trace.overhead_pct", "%", overhead_pct);
    ]
  in
  (* Span time of the median replayed request plus the hand-off, which
     the in-process path has no span for. *)
  let accounted_ms = (median_of request_totals *. 1e3) +. (handoff_us /. 1e3) in
  (metrics, accounted_ms, l.spans)
