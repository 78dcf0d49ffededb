open Service

type t = {
  lfd : Unix.file_descr;
  port : int;
  pool : Pool.t;
  resolve : Batch.resolver option;
  metrics : Metrics.t;
  limits : Http.limits;
  reactor : Reactor.t;
  node : Cluster.Node.t option;
  stop : bool Atomic.t;
}

(* ------------------------------------------------------------- metrics *)

let requests_total = "etransform_http_requests_total"
let request_seconds = "etransform_http_request_seconds"

let count_request t ~route ~status =
  Metrics.incr t.metrics requests_total
    ~help:"HTTP requests served, by route and status"
    ~labels:[ ("route", route); ("status", string_of_int status) ]

let register_gauges t =
  let one name help f =
    Metrics.gauge t.metrics name ~help (fun () -> [ ([], f ()) ])
  in
  one "etransform_pool_queue_depth" "Jobs waiting in the pool queue"
    (fun () -> float_of_int (Pool.queue_depth t.pool));
  one "etransform_pool_workers" "Pool workers draining the queue"
    (fun () -> float_of_int (Pool.workers t.pool));
  let cache = Pool.cache t.pool and tiered = Pool.tiered t.pool in
  let memory result () =
    match List.assoc_opt ("memory", result) (Tiered.counts tiered) with
    | Some n -> float_of_int n
    | None -> 0.0
  in
  one "etransform_cache_hits_total" "Plan-cache hits since pool start"
    (memory "hit");
  one "etransform_cache_misses_total" "Plan-cache misses since pool start"
    (memory "miss");
  one "etransform_cache_evictions_total" "Plan-cache LRU evictions"
    (fun () -> float_of_int (Cache.evictions cache));
  one "etransform_cache_entries" "Plans currently cached"
    (fun () -> float_of_int (Cache.length cache));
  one "etransform_http_connections" "Open client connections"
    (fun () -> float_of_int (Reactor.live t.reactor));
  Metrics.gauge t.metrics "etransform_http_conn_state"
    ~help:"Open client connections by state"
    (fun () ->
      let busy = Reactor.busy t.reactor in
      let idle = max 0 (Reactor.live t.reactor - busy) in
      [
        ([ ("state", "busy") ], float_of_int busy);
        ([ ("state", "idle") ], float_of_int idle);
      ]);
  Metrics.gauge t.metrics "etransform_reactor_buffers"
    ~help:"Reactor buffer pool: free-listed and total created"
    (fun () ->
      let free, created = Reactor.pool_stats t.reactor in
      [
        ([ ("kind", "free") ], float_of_int free);
        ([ ("kind", "created") ], float_of_int created);
      ]);
  Metrics.gauge t.metrics "etransform_cache_lookups_total"
    ~help:"Tiered cache lookups by tier (memory/disk/peer) and result"
    (fun () ->
      List.map
        (fun ((tier, result), n) ->
          ([ ("result", result); ("tier", tier) ], float_of_int n))
        (Tiered.counts tiered));
  match Tiered.disk_bytes tiered with
  | Some bytes ->
      one "etransform_cache_disk_bytes"
        "On-disk plan store segment size in bytes" bytes
  | None -> ()

(* -------------------------------------------------------------- routes *)

let json_headers = [ ("Content-Type", "application/json") ]
let ndjson_headers = [ ("Content-Type", "application/x-ndjson") ]

let error_body code reason =
  Json.to_string
    (Json.Obj [ ("code", Json.Str code); ("reason", Json.Str reason) ])
  ^ "\n"

(* Answer with a complete response; returns [status] for the request
   counter. *)
let respond ?(headers = json_headers) out ~keep status body =
  Http.respond out ~status ~headers ~keep_alive:keep body;
  status

let respond_error ?headers out ~keep status code reason =
  respond ?headers out ~keep status (error_body code reason)

(* Queue full: shed load instead of stalling the connection (and
   transitively the reactor) on a blocking submit. *)
let shed out ~keep =
  respond_error
    ~headers:(("Retry-After", "1") :: json_headers)
    out ~keep 503 "busy" "job queue is full; retry shortly"

(* Read and decode a JSON request body, answering 400 when it is not
   JSON or [decode] rejects it; [k] handles the decoded value. *)
let with_json_body out body ~keep decode k =
  match Json.parse (Http.read_all body) with
  | Error msg ->
      respond_error out ~keep 400 "invalid" ("body is not JSON: " ^ msg)
  | Ok j -> (
      match decode j with
      | Error msg -> respond_error out ~keep 400 "invalid" msg
      | Ok v -> k v)

(* The event-loop driver of [Pool.stream]: each admitted ticket still
   unresolved has a completion hook that notifies this connection's
   fiber, which parks in [wait_signal] (or, with nothing of its own in
   flight and the pool full, naps briefly and retries).  A ticket
   resolved at admission (inline pool, local hit) needs no wake-up.
   The stream's flush becomes the [on_signal] read hook, so result
   chunks go out while the fiber is parked reading the request body.
   [first] is a ticket admitted before the response started; it stands
   in for the first job. *)
let fiber_driver ?first t rc =
  let watch ticket =
    if Pool.poll ticket = None then
      Pool.on_complete ticket (fun _ -> Reactor.notify rc)
  in
  Option.iter watch first;
  let first = ref first in
  {
    Pool.admit =
      (fun job ->
        match !first with
        | Some ticket ->
            first := None;
            Some ticket
        | None ->
            let ticket = Pool.try_submit t.pool job in
            Option.iter watch ticket;
            ticket);
    wait =
      (function
      | Some _ -> Reactor.wait_signal rc | None -> Reactor.sleep rc 0.005);
    reading = (fun flush -> Reactor.set_on_signal rc (Some flush));
  }

(* POST /solve: one job spec in, one result line out — byte-compatible
   with the line `etransform batch` prints for the same job.  The body
   is fully read and the job admitted with [try_submit] (a full queue
   sheds with 503), then a one-slot stream on the fiber driver parks
   until its ticket resolves. *)
let handle_solve t rc out body ~keep =
  with_json_body out body ~keep (Batch.job_of_json ?resolve:t.resolve)
  @@ fun job ->
  match Pool.try_submit t.pool job with
  | None -> shed out ~keep
  | Some ticket ->
      let line = ref "" in
      Pool.stream ~driver:(fiber_driver ~first:ticket t rc) t.pool
        ~read:(Seq.to_dispenser (Seq.return ((), Ok job)))
        ~emit:(fun () ->
          Result.iter (fun r -> line := Batch.result_to_line r ^ "\n"));
      respond out ~keep 200 !line

(* Start a chunked NDJSON answer; returns the line writer. *)
let start_stream out ~keep ~streaming =
  streaming := true;
  let ch =
    Http.start_chunked_out out ~status:200 ~headers:ndjson_headers
      ~keep_alive:keep ()
  in
  (ch, fun line -> Http.write_chunk ch (line ^ "\n"))

(* POST /batch: NDJSON request body -> chunked NDJSON response, one line
   per job in input order: [Batch.run_lines] on the fiber driver. *)
let handle_batch t rc out body ~keep ~streaming =
  let ch, write = start_stream out ~keep ~streaming in
  ignore
    (Batch.run_lines ?resolve:t.resolve ~driver:(fiber_driver t rc) t.pool
       ~read_line:(fun () -> Http.read_line body)
       ~write);
  Http.finish_chunked ch;
  200

(* POST /sweep: one job spec plus a ["grid"] member -> chunked NDJSON,
   one line per grid point in grid order as each completes, then one
   terminal frontier line.  The first point is admitted with [try_submit]
   BEFORE any response bytes leave, so a saturated pool sheds the whole
   sweep as a clean 503 + Retry-After — exactly like /solve — instead of
   aborting a started stream. *)
let handle_sweep t rc out body ~keep ~streaming =
  with_json_body out body ~keep (Sweep.request_of_json ?resolve:t.resolve)
  @@ fun (base, grid) ->
  match Pool.try_submit t.pool (snd (List.hd (Sweep.expand base grid))) with
  | None -> shed out ~keep
  | Some first ->
      let ch, write = start_stream out ~keep ~streaming in
      let s =
        Sweep.run ~driver:(fiber_driver ~first t rc) t.pool base grid
          ~f:(fun p -> write (Sweep.point_line p))
      in
      write (Sweep.frontier_line s);
      Http.finish_chunked ch;
      200

(* GET /cache/<fingerprint>: the peer-transfer endpoint.  Answers from
   local tiers only (memory + disk, via [find_local]) so a probe from a
   peer never fans back out to our own peers — lookups cannot loop.
   The body is the binary {!Cluster.Codec} payload, byte-identical to
   the disk segment entry; a miss is a plain 404. *)
let handle_cache t out fp ~keep =
  match Tiered.find_local (Pool.tiered t.pool) fp with
  | Some outcome ->
      respond
        ~headers:[ ("Content-Type", "application/octet-stream") ]
        out ~keep 200
        (Cluster.Codec.encode outcome)
  | None ->
      respond_error out ~keep 404 "miss" "fingerprint not cached on this node"

(* POST /gossip: one digest exchange.  The sender's Bloom digest is
   installed (so our future probes to it are gated) and ours comes back
   in the response body. *)
let handle_gossip t out body ~keep =
  match t.node with
  | None ->
      respond_error out ~keep 404 "not_found" "cluster gossip is not enabled"
  | Some node -> (
      match Cluster.Node.gossip_receive node (Http.read_all body) with
      | Some reply -> respond out ~keep 200 (reply ^ "\n")
      | None -> respond_error out ~keep 400 "invalid" "malformed gossip body")

let handle_healthz t out ~keep =
  respond out ~keep 200
    (Json.to_string
       (Json.Obj
          [
            ( "status",
              Json.Str (if Atomic.get t.stop then "draining" else "ok") );
            ("workers", Json.Num (float_of_int (Pool.workers t.pool)));
            ( "queue_depth",
              Json.Num (float_of_int (Pool.queue_depth t.pool)) );
            ( "queue_capacity",
              Json.Num (float_of_int (Pool.queue_capacity t.pool)) );
          ])
    ^ "\n")

let handle_metrics t out ~keep =
  respond
    ~headers:[ ("Content-Type", "text/plain; version=0.0.4") ]
    out ~keep 200
    (Metrics.render t.metrics)

(* Dispatch one parsed request.  Returns [true] to keep the connection
   open for the next request.  [started] records that a handler ran, so
   the connection's late error paths (408/400) know not to splice a
   second head after its answer.  [streaming] records that a chunked
   response head went out: a body error after that point (413/400)
   ends the stream by closing the connection instead of answering. *)
let handle_request t rc out conn req ~started =
  let body = Http.body_of_request conn req in
  let streaming = ref false in
  let keep = Http.keep_alive req && not (Atomic.get t.stop) in
  let route, handler =
    match (req.Http.meth, req.Http.path) with
    | Http.POST, "/solve" ->
        ("/solve", fun () -> handle_solve t rc out body ~keep)
    | Http.POST, "/batch" ->
        ("/batch", fun () -> handle_batch t rc out body ~keep ~streaming)
    | Http.POST, "/sweep" ->
        ("/sweep", fun () -> handle_sweep t rc out body ~keep ~streaming)
    | Http.GET, "/healthz" -> ("/healthz", fun () -> handle_healthz t out ~keep)
    | Http.GET, "/metrics" -> ("/metrics", fun () -> handle_metrics t out ~keep)
    | Http.POST, "/gossip" ->
        ("/gossip", fun () -> handle_gossip t out body ~keep)
    | Http.GET, path
      when String.length path > 7 && String.sub path 0 7 = "/cache/" ->
        let fp = String.sub path 7 (String.length path - 7) in
        ("/cache", fun () -> handle_cache t out fp ~keep)
    | _, ("/solve" | "/batch" | "/sweep" | "/healthz" | "/metrics" | "/gossip")
      ->
        ( req.Http.path,
          fun () ->
            respond_error out ~keep 405 "method_not_allowed"
              "unsupported method" )
    | _ ->
        ( "other",
          fun () -> respond_error out ~keep 404 "not_found" "unknown route" )
  in
  (* After a chunked head went out, a second head would land inside the
     stream: end it by closing the connection instead. *)
  let refuse status code reason =
    if not !streaming then
      (try ignore (respond_error out ~keep:false status code reason)
       with _ -> ());
    (status, false)
  in
  let t0 = Lp.Clock.now () in
  let status, keep =
    try
      started := true;
      let status = handler () in
      (* Leftover body bytes would be parsed as the next request line;
         consume them so keep-alive stays aligned. *)
      Http.drain body;
      (status, keep)
    with
    | Http.Payload_too_large ->
        refuse 413 "too_large" "request body exceeds the limit"
    | Http.Bad_request msg -> refuse 400 "bad_request" msg
  in
  count_request t ~route ~status;
  Metrics.observe t.metrics request_seconds
    ~help:"HTTP request wall time by route" ~labels:[ ("route", route) ]
    (Lp.Clock.now () -. t0);
  keep

(* --------------------------------------------------------- connections *)

(* The per-connection fiber: parse requests off the reactor's byte
   source, answer through the batched writer, loop on keep-alive.  The
   HTTP conn and writer live for the whole connection, reusing the
   pooled buffers and scratch space across requests. *)
let handle_connection t rc =
  let conn =
    Http.conn_of_source ~limits:t.limits ~buf:(Reactor.in_buf rc)
      (fun b off len -> Reactor.read rc b off len)
  in
  let out =
    Http.out_of_sink ~buf:(Reactor.out_buf rc)
      (fun b off len -> Reactor.write_some rc b off len)
  in
  let started = ref false in
  let rec loop () =
    match Http.read_request conn with
    | None -> ()
    | Some req ->
        started := false;
        Reactor.set_in_request rc true;
        let keep =
          Fun.protect
            ~finally:(fun () ->
              Reactor.set_on_signal rc None;
              Reactor.set_in_request rc false)
            (fun () -> handle_request t rc out conn req ~started)
        in
        if keep && not (Atomic.get t.stop) then loop ()
  in
  try loop () with
  | Http.Bad_request msg ->
      (* Unparseable request head: best-effort 400, then hang up. *)
      if not !started then
        (try ignore (respond_error out ~keep:false 400 "bad_request" msg)
         with _ -> ())
  | Http.Payload_too_large -> ()
  | Reactor.Idle_timeout ->
      (* Slow-loris eviction: the peer stalled past the idle limit.  If
         no response bytes are in flight, say why before closing. *)
      if not !started then
        (try
           ignore
             (respond_error out ~keep:false 408 "timeout"
                "connection idle too long")
         with _ -> ())
  | Unix.Unix_error
      ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN), _, _) ->
      ()
  | Sys_error _ -> ()

(* A connection arriving past max-conns: answer 503 and close without
   entering the reactor's accounting. *)
let reject_connection fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      try
        Http.write_response fd ~status:503
          ~headers:(("Retry-After", "1") :: json_headers) ~keep_alive:false
          (error_body "overloaded" "connection limit reached; retry shortly")
      with _ -> ())

(* ---------------------------------------------------------- lifecycle *)

let create ?(addr = "127.0.0.1") ?(port = 0) ?(backlog = 64)
    ?(limits = Http.default_limits) ?(drain_timeout = 10.0) ?resolve
    ?(metrics = Metrics.create ()) ?(max_conns = 4096) ?(idle_timeout = 30.0)
    ?node ~pool () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  let inet =
    try Unix.inet_addr_of_string addr
    with _ -> invalid_arg (Printf.sprintf "Server.create: bad address %S" addr)
  in
  (try Unix.bind lfd (Unix.ADDR_INET (inet, port))
   with exn ->
     Unix.close lfd;
     raise exn);
  Unix.listen lfd backlog;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let reactor = Reactor.create ~max_conns ~idle_timeout ~drain_timeout () in
  let t =
    {
      lfd;
      port;
      pool;
      resolve;
      metrics;
      limits;
      reactor;
      node;
      stop = Atomic.make false;
    }
  in
  (* The gossip digest must advertise everything /cache can serve:
     in-memory LRU entries plus the on-disk store. *)
  (match node with
  | Some node ->
      Cluster.Node.set_local_keys node (fun () ->
          let tiered = Pool.tiered pool in
          let disk =
            match Cluster.Node.store node with
            | Some s -> Cluster.Store.keys s
            | None -> []
          in
          List.sort_uniq compare (Tiered.keys tiered @ disk))
  | None -> ());
  register_gauges t;
  t

let port t = t.port
let metrics t = t.metrics

let request_stop t =
  Atomic.set t.stop true;
  Reactor.request_stop t.reactor

let draining t = Atomic.get t.stop

let run t =
  Reactor.run t.reactor ~listener:t.lfd ~reject:reject_connection
    (fun rc -> handle_connection t rc);
  (* Drain complete: make the disk tier's index snapshot current so the
     next start skips the full segment scan. *)
  Option.iter Cluster.Node.flush t.node
