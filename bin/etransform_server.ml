(* The eTransform planning server: a long-lived HTTP/1.1 front-end over
   the concurrent worker pool.

   Try:
     etransform_server --port 8080 --workers 4
     curl -s localhost:8080/healthz
     curl -s -XPOST localhost:8080/solve -d \
       '{"id":"j1","estate":{"kind":"dataset","name":"enterprise1"}}'
     curl -sN -XPOST localhost:8080/batch --data-binary @examples/batch_jobs.ndjson
     curl -s localhost:8080/metrics

   Tiered plan cache: --cache-dir adds a crash-safe on-disk tier that
   survives restarts; --peers joins a cluster where nodes answer each
   other's GET /cache/<fingerprint> probes and gossip Bloom digests of
   what they hold, so any plan solved anywhere in the fleet is a warm
   hit everywhere.

   SIGINT/SIGTERM drain gracefully: the listener closes immediately,
   in-flight jobs get up to --drain-timeout seconds to finish, then the
   process exits. *)

open Cmdliner

let serve port addr workers queue cache_size trace_file drain_timeout
    max_conns idle_timeout shards cache_dir peers advertise gossip_interval
    fetch_timeout =
  (* A client hanging up mid-stream must end that connection quietly
     (EPIPE on its socket), not kill the whole server with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if shards <> 1 then begin
    prerr_endline
      "etransform_server: --reactor-shards accepts only 1 (the reactor runs \
       one readiness loop)";
    exit 2
  end;
  let workers = Service.Pool.clamp_workers ~what:"etransform_server" workers in
  let trace_out, close_trace =
    match trace_file with
    | None -> (Service.Trace.null, fun () -> ())
    | Some "-" -> (Service.Trace.to_channel stderr, fun () -> ())
    | Some path ->
        let oc = open_out path in
        (Service.Trace.to_channel oc, fun () -> close_out oc)
  in
  let metrics = Service.Metrics.create () in
  (* Tee the pool's trace into the metrics registry: every job span both
     reaches the JSONL sink and updates the counters/histograms that
     /metrics exposes. *)
  let trace =
    Service.Trace.tee trace_out
      (Service.Trace.observer (Service.Metrics.observe_trace metrics))
  in
  let peer_list =
    List.filter
      (fun p -> p <> "")
      (List.map String.trim (String.split_on_char ',' peers))
  in
  let node =
    Cluster.Node.create ?cache_dir ~peers:peer_list ~gossip_interval
      ~fetch_timeout ()
  in
  Service.Pool.with_pool ~workers ~queue_capacity:queue
    ~cache_capacity:cache_size ~tiers:(Cluster.Node.tiers node) ~trace
    (fun pool ->
      let server =
        Server.Daemon.create ~addr ~port ~drain_timeout ~max_conns
          ~idle_timeout ~resolve:Harness.Line_jobs.resolve ~metrics
          ~node ~pool ()
      in
      let self =
        match advertise with
        | Some a -> a
        | None -> Printf.sprintf "%s:%d" addr (Server.Daemon.port server)
      in
      Cluster.Node.set_self node self;
      Cluster.Node.start node;
      let stop _ = Server.Daemon.request_stop server in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Printf.eprintf
        "etransform_server: listening on %s:%d (%d workers, queue %d%s%s)\n%!"
        addr
        (Server.Daemon.port server)
        workers queue
        (match cache_dir with
        | Some d -> Printf.sprintf ", disk cache %s" d
        | None -> "")
        (match peer_list with
        | [] -> ""
        | ps -> Printf.sprintf ", %d peers" (List.length ps));
      Server.Daemon.run server;
      Cluster.Node.close node;
      Printf.eprintf "etransform_server: drained, shutting down\n%!");
  close_trace ()

let port =
  Arg.(value & opt int 8080
       & info [ "port" ] ~doc:"Listen port (0 picks an ephemeral port).")

let addr =
  Arg.(value & opt string "127.0.0.1"
       & info [ "addr" ] ~doc:"Listen address.")

let workers =
  Arg.(value & opt int 2
       & info [ "workers" ]
           ~doc:"Solver workers, on as many domains: worker 0 shares \
                 the reactor's domain, and plans held in a local cache \
                 tier never reach a worker (0 = solve inline).")

let queue =
  Arg.(value & opt int 64
       & info [ "queue" ]
           ~doc:"Bounded job-queue capacity; a full queue answers 503.")

let cache_size =
  Arg.(value & opt int 256
       & info [ "cache" ] ~doc:"Plan-cache capacity (0 disables).")

let trace_file =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write JSONL per-job trace spans here (- for stderr).")

let drain_timeout =
  Arg.(value & opt float 10.0
       & info [ "drain-timeout" ]
           ~doc:"Seconds to let in-flight requests finish on shutdown.")

let max_conns =
  Arg.(value & opt int 4096
       & info [ "max-conns" ]
           ~doc:"Live-connection cap; connections beyond it answer 503.")

let idle_timeout =
  Arg.(value & opt float 30.0
       & info [ "idle-timeout" ]
           ~doc:"Seconds before an idle/stalled connection is evicted \
                 (408 if no response started; 0 disables).")

let shards =
  Arg.(value & opt int 1
       & info [ "reactor-shards" ]
           ~doc:"Deprecated: the reactor runs one readiness loop, so \
                 only 1 is accepted; any other value is an error.")

let cache_dir =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persist solved plans to a crash-safe store in $(docv); \
                 on restart previously solved fingerprints answer from \
                 disk instead of re-solving.")

let peers =
  Arg.(value & opt string ""
       & info [ "peers" ] ~docv:"HOST:PORT,..."
           ~doc:"Comma-separated sibling servers forming a \
                 consistent-hash cache ring; plans solved by a peer are \
                 fetched instead of re-solved.")

let advertise =
  Arg.(value & opt (some string) None
       & info [ "advertise" ] ~docv:"HOST:PORT"
           ~doc:"Own address as peers see it (default --addr:--port); \
                 excluded from probes and announced in gossip.")

let gossip_interval =
  Arg.(value & opt float 5.0
       & info [ "gossip-interval" ]
           ~doc:"Seconds between Bloom-digest gossip rounds with peers.")

let fetch_timeout =
  Arg.(value & opt float 2.0
       & info [ "fetch-timeout" ]
           ~doc:"Seconds before a peer cache probe gives up (a slow peer \
                 degrades to a local solve, never a stall).")

let () =
  let cmd =
    Cmd.v
      (Cmd.info "etransform_server" ~version:"1.0.0"
         ~doc:"serve planning jobs over HTTP (POST /solve, POST /batch)")
      Term.(const serve $ port $ addr $ workers $ queue $ cache_size
            $ trace_file $ drain_timeout $ max_conns $ idle_timeout $ shards
            $ cache_dir $ peers $ advertise $ gossip_interval $ fetch_timeout)
  in
  exit (Cmd.eval cmd)
