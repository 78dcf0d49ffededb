(* The HTTP layer: wire-protocol parsing over socketpairs, and the full
   server (routes, backpressure, duplex /batch streaming) over loopback
   sockets. *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f a b)

(* Parse the request found in [text] (written on one end of a pair, read
   on the other). *)
let parse ?limits text f =
  with_socketpair (fun wr rd ->
      write_all wr text;
      Unix.shutdown wr Unix.SHUTDOWN_SEND;
      let conn = Server.Http.conn_of_fd ?limits rd in
      f conn)

let test_parse_request () =
  parse
    "POST /solve?x=1 HTTP/1.1\r\nHost: h\r\nContent-Type:  application/json \r\nContent-Length: 5\r\n\r\nhello"
    (fun conn ->
      match Server.Http.read_request conn with
      | None -> Alcotest.fail "no request"
      | Some req ->
          Alcotest.(check bool) "method" true (req.Server.Http.meth = Server.Http.POST);
          Alcotest.(check string) "path" "/solve" req.Server.Http.path;
          Alcotest.(check string) "query" "x=1" req.Server.Http.query;
          Alcotest.(check (option string)) "header folded to lowercase"
            (Some "application/json")
            (Server.Http.header req "Content-Type");
          Alcotest.(check bool) "1.1 keep-alive default" true
            (Server.Http.keep_alive req);
          let body = Server.Http.body_of_request conn req in
          Alcotest.(check string) "fixed body" "hello"
            (Server.Http.read_all body);
          (* After the body the connection is cleanly at EOF. *)
          Alcotest.(check bool) "eof" true (Server.Http.read_request conn = None))

let test_parse_chunked () =
  parse
    "POST /batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=z\r\nab\ncd\r\n3\r\nef\n\r\n0\r\nX-Trailer: t\r\n\r\n"
    (fun conn ->
      match Server.Http.read_request conn with
      | None -> Alcotest.fail "no request"
      | Some req ->
          let body = Server.Http.body_of_request conn req in
          Alcotest.(check (option string)) "line 1" (Some "ab")
            (Server.Http.read_line body);
          Alcotest.(check (option string)) "line 2" (Some "cdef")
            (Server.Http.read_line body);
          Alcotest.(check (option string)) "end" None
            (Server.Http.read_line body))

let test_keep_alive_negotiation () =
  let req ?(version = "HTTP/1.1") headers =
    { Server.Http.meth = Server.Http.GET; path = "/"; query = "";
      version; headers }
  in
  Alcotest.(check bool) "1.1 default on" true
    (Server.Http.keep_alive (req []));
  Alcotest.(check bool) "1.1 close" false
    (Server.Http.keep_alive (req [ ("connection", "close") ]));
  Alcotest.(check bool) "1.0 default off" false
    (Server.Http.keep_alive (req ~version:"HTTP/1.0" []));
  Alcotest.(check bool) "1.0 keep-alive" true
    (Server.Http.keep_alive
       (req ~version:"HTTP/1.0" [ ("connection", "Keep-Alive") ]))

let test_limits () =
  let limits =
    { Server.Http.default_limits with Server.Http.max_body = 8 }
  in
  (* Declared length over the cap rejects before reading the body. *)
  parse ~limits "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789"
    (fun conn ->
      match Server.Http.read_request conn with
      | None -> Alcotest.fail "no request"
      | Some req -> (
          match Server.Http.body_of_request conn req with
          | exception Server.Http.Payload_too_large -> ()
          | _ -> Alcotest.fail "oversized content-length accepted"));
  (* Chunked bodies only reveal their size as they stream: the cap fires
     mid-read. *)
  parse ~limits
    "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n9\r\n123456789\r\n0\r\n\r\n"
    (fun conn ->
      match Server.Http.read_request conn with
      | None -> Alcotest.fail "no request"
      | Some req -> (
          let body = Server.Http.body_of_request conn req in
          match Server.Http.read_all body with
          | exception Server.Http.Payload_too_large -> ()
          | _ -> Alcotest.fail "oversized chunked body accepted"));
  (* Garbage request lines raise Bad_request, they don't loop. *)
  parse "not an http request at all\r\n\r\n" (fun conn ->
      match Server.Http.read_request conn with
      | exception Server.Http.Bad_request _ -> ()
      | _ -> Alcotest.fail "garbage accepted")

(* ------------------------------------------------- full-server harness *)

let job_line ?(id = "j") ?(penalty = 0) () =
  Printf.sprintf
    {|{"id":"%s","estate":{"kind":"line","n_groups":12,"penalty":%d},"milp":{"nodes":2,"time":20}}|}
    id penalty

let with_server ?(workers = 1) ?(queue = 64) ?max_conns ?idle_timeout ?limits
    f =
  Service.Pool.with_pool ~workers ~queue_capacity:queue (fun pool ->
      let server =
        Server.Daemon.create ~port:0 ~drain_timeout:5.0 ?max_conns
          ?idle_timeout ?limits ~resolve:Harness.Line_jobs.resolve ~pool ()
      in
      let th = Thread.create Server.Daemon.run server in
      Fun.protect
        ~finally:(fun () ->
          Server.Daemon.request_stop server;
          Thread.join th)
        (fun () -> f pool server))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* A stuck test should fail with a timeout error, not hang CI. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  fd

(* Read the response head; returns (status, headers) with the reader
   positioned at the body. *)
let read_head ic =
  let status_line = input_line ic in
  let status =
    match String.split_on_char ' ' (String.trim status_line) with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.failf "bad status line %S" status_line
  in
  let rec headers acc =
    match String.trim (input_line ic) with
    | "" -> List.rev acc
    | line -> (
        match String.index_opt line ':' with
        | None -> headers acc
        | Some i ->
            headers
              ((String.lowercase_ascii (String.sub line 0 i),
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1)))
              :: acc))
  in
  (status, headers [])

(* One chunk of a chunked response body; [None] on the final 0-chunk. *)
let read_chunk ic =
  let size_line = String.trim (input_line ic) in
  let n = int_of_string ("0x" ^ size_line) in
  if n = 0 then begin
    (try ignore (input_line ic) with End_of_file -> ());
    None
  end
  else begin
    let data = really_input_string ic n in
    ignore (input_line ic);  (* chunk-terminating CRLF *)
    Some data
  end

let simple_request port text =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      write_all fd text;
      let ic = Unix.in_channel_of_descr fd in
      let status, headers = read_head ic in
      let body =
        match List.assoc_opt "content-length" headers with
        | Some n -> really_input_string ic (int_of_string n)
        | None ->
            let buf = Buffer.create 256 in
            let rec go () =
              match read_chunk ic with
              | Some c ->
                  Buffer.add_string buf c;
                  go ()
              | None -> ()
            in
            (match List.assoc_opt "transfer-encoding" headers with
            | Some "chunked" -> go ()
            | _ -> ());
            Buffer.contents buf
      in
      (status, headers, body))

let post port path body =
  simple_request port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s"
       path (String.length body) body)

let test_solve_roundtrip () =
  with_server (fun _pool server ->
      let port = Server.Daemon.port server in
      let status, _, body = post port "/solve" (job_line ~id:"http1" ()) in
      Alcotest.(check int) "200" 200 status;
      match Service.Json.parse (String.trim body) with
      | Error m -> Alcotest.failf "bad body %S: %s" body m
      | Ok j ->
          Alcotest.(check (option string)) "solved" (Some "ok")
            (Option.bind (Service.Json.member "code" j) Service.Json.to_str);
          Alcotest.(check (option string)) "id echoed" (Some "http1")
            (Option.bind (Service.Json.member "id" j) Service.Json.to_str);
          Alcotest.(check bool) "has placement" true
            (Service.Json.member "placement" j <> None))

let test_solve_rejects_bad_specs () =
  with_server (fun _pool server ->
      let port = Server.Daemon.port server in
      let status, _, _ = post port "/solve" "this is not json" in
      Alcotest.(check int) "non-JSON body is 400" 400 status;
      let status, _, _ = post port "/solve" {|{"id":"x"}|} in
      Alcotest.(check int) "missing estate is 400" 400 status;
      let status, _, _ = post port "/nowhere" "{}" in
      Alcotest.(check int) "unknown route is 404" 404 status;
      let status, _, _ =
        simple_request port "DELETE /solve HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
      in
      Alcotest.(check int) "wrong method is 405" 405 status)

(* The tentpole streaming property: /batch result lines must arrive
   while the request body is still open — the response cannot wait for
   the final byte of the request. *)
let test_batch_streams_before_eof () =
  with_server ~workers:1 (fun _pool server ->
      let port = Server.Daemon.port server in
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          write_all fd
            "POST /batch HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
          let chunk s =
            write_all fd
              (Printf.sprintf "%x\r\n%s\r\n" (String.length s) s)
          in
          (* First two jobs go out; the body stays open. *)
          chunk (job_line ~id:"w1" () ^ "\n");
          chunk (job_line ~id:"w2" ~penalty:40 () ^ "\n");
          let ic = Unix.in_channel_of_descr fd in
          let status, _headers = read_head ic in
          Alcotest.(check int) "200" 200 status;
          let read_result_line () =
            match read_chunk ic with
            | Some data -> String.trim data
            | None -> Alcotest.fail "response ended early"
          in
          (* These two reads would deadlock if the server buffered the
             whole request body before answering: we haven't sent the
             terminating chunk yet. *)
          let l1 = read_result_line () in
          let l2 = read_result_line () in
          let id_of line =
            match Service.Json.parse line with
            | Ok j ->
                Option.value ~default:"?"
                  (Option.bind (Service.Json.member "id" j)
                     Service.Json.to_str)
            | Error m -> Alcotest.failf "bad result line %S: %s" line m
          in
          Alcotest.(check string) "first result before body EOF" "w1"
            (id_of l1);
          Alcotest.(check string) "second result before body EOF" "w2"
            (id_of l2);
          (* Now finish the request and collect the third result. *)
          chunk (job_line ~id:"w3" ~penalty:80 () ^ "\n");
          write_all fd "0\r\n\r\n";
          let l3 = read_result_line () in
          Alcotest.(check string) "third result after resume" "w3" (id_of l3);
          Alcotest.(check (option string)) "stream closed" None
            (read_chunk ic)))

(* A /batch body that overruns max_body after its stream started: the
   200 head and a result are already out, so a 413 head would land inside
   the chunked body.  The server must end the stream by closing the
   connection instead, and still count the request as a 413. *)
let test_batch_overrun_closes_stream () =
  let limits =
    { Server.Http.default_limits with Server.Http.max_body = 256 }
  in
  with_server ~limits (fun _pool server ->
      let port = Server.Daemon.port server in
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          write_all fd
            "POST /batch HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n";
          let chunk s =
            write_all fd (Printf.sprintf "%x\r\n%s\r\n" (String.length s) s)
          in
          chunk (job_line ~id:"o1" () ^ "\n");
          let ic = Unix.in_channel_of_descr fd in
          let status, _ = read_head ic in
          Alcotest.(check int) "200" 200 status;
          (match read_chunk ic with
          | Some line ->
              Alcotest.(check bool) "first result streamed" true
                (Astring_contains.contains line {|"id":"o1"|})
          | None -> Alcotest.fail "stream ended before the first result");
          (* Overrun: this chunk takes the body past max_body. *)
          (try chunk (job_line ~id:"o2" () ^ String.make 300 ' ' ^ "\n")
           with Unix.Unix_error _ -> ());
          let rest = Buffer.create 256 in
          (try
             while true do
               Buffer.add_channel rest ic 1
             done
           with End_of_file | Sys_error _ -> ());
          let rest = Buffer.contents rest in
          Alcotest.(check bool)
            (Printf.sprintf "no second head in the stream: %S" rest)
            false
            (Astring_contains.contains rest "HTTP/1.1"));
      let rec counted tries =
        let scrape = Service.Metrics.render (Server.Daemon.metrics server) in
        Astring_contains.contains scrape
          {|etransform_http_requests_total{route="/batch",status="413"} 1|}
        || (tries > 0 && (Unix.sleepf 0.05; counted (tries - 1)))
      in
      Alcotest.(check bool) "counted as 413" true (counted 40))

let line_milp =
  {
    Service.Job.no_overrides with
    Service.Job.node_limit = Some 2;
    time_limit = Some 20.0;
  }

let test_solve_backpressure_503 () =
  (* workers=1 and a queue of 1: one slow job on the worker and one in
     the queue leave no room, so /solve must shed with 503 rather than
     block the connection. *)
  with_server ~workers:1 ~queue:1 (fun pool server ->
      let port = Server.Daemon.port server in
      let slow key =
        Service.Job.v ~milp:line_milp
          (Service.Job.Inline
             {
               key;
               build =
                 (fun () ->
                   Unix.sleepf 0.6;
                   Harness.Line_estate.make
                     { Harness.Line_estate.default with
                       Harness.Line_estate.n_groups = 12 });
             })
      in
      let t1 = Service.Pool.submit pool (slow "slow-a") in
      let t2 = Service.Pool.submit pool (slow "slow-b") in
      let status, headers, _ = post port "/solve" (job_line ()) in
      Alcotest.(check int) "503 when queue full" 503 status;
      Alcotest.(check bool) "retry-after set" true
        (List.assoc_opt "retry-after" headers <> None);
      ignore (Service.Pool.await t1);
      ignore (Service.Pool.await t2);
      let status, _, _ = post port "/solve" (job_line ()) in
      Alcotest.(check int) "accepted once drained" 200 status)

let test_solve_cached_on_full_queue () =
  (* A full queue sheds only local misses: a /solve whose plan is in
     memory is answered at submission, 200 with the cached plan. *)
  with_server ~workers:1 ~queue:1 (fun pool server ->
      let port = Server.Daemon.port server in
      let status, _, _ = post port "/solve" (job_line ~id:"warm" ()) in
      Alcotest.(check int) "warm-up solve" 200 status;
      (* Each held job's estate build waits for the gate. *)
      let m = Mutex.create () and c = Condition.create () in
      let opened = ref false in
      let open_gate () =
        Mutex.lock m;
        opened := true;
        Condition.broadcast c;
        Mutex.unlock m
      in
      let held key =
        Service.Job.v ~milp:line_milp
          (Service.Job.Inline
             {
               key;
               build =
                 (fun () ->
                   Mutex.lock m;
                   while not !opened do
                     Condition.wait c m
                   done;
                   Mutex.unlock m;
                   Harness.Line_estate.make
                     { Harness.Line_estate.default with
                       Harness.Line_estate.n_groups = 12 });
             })
      in
      Fun.protect ~finally:open_gate @@ fun () ->
      (* The second submit returns once the worker took the first, so
         the worker is busy and the queue is full. *)
      let t1 = Service.Pool.submit pool (held "held-a") in
      let t2 = Service.Pool.submit pool (held "held-b") in
      let status, _, _ = post port "/solve" (job_line ~penalty:40 ()) in
      Alcotest.(check int) "a cold job is shed" 503 status;
      let status, _, body = post port "/solve" (job_line ~id:"again" ()) in
      Alcotest.(check int) "a cached job is answered" 200 status;
      Alcotest.(check bool) "from the cache" true
        (Astring_contains.contains body {|"cache":"hit"|});
      open_gate ();
      ignore (Service.Pool.await t1);
      ignore (Service.Pool.await t2))

(* Two requests in one TCP segment: after answering the first, the
   fiber must find the second already sitting in its connection buffer
   instead of parking for a readiness event that will never come. *)
let test_keepalive_pipelined () =
  with_server (fun _pool server ->
      let port = Server.Daemon.port server in
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          let req id =
            let body = job_line ~id () in
            Printf.sprintf
              "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
              (String.length body) body
          in
          write_all fd (req "p1" ^ req "p2");
          let ic = Unix.in_channel_of_descr fd in
          let read_one expect_id =
            let status, headers = read_head ic in
            Alcotest.(check int) "200" 200 status;
            let body =
              match List.assoc_opt "content-length" headers with
              | Some n -> really_input_string ic (int_of_string n)
              | None -> Alcotest.fail "expected content-length"
            in
            match Service.Json.parse (String.trim body) with
            | Ok j ->
                Alcotest.(check (option string)) "id" (Some expect_id)
                  (Option.bind (Service.Json.member "id" j)
                     Service.Json.to_str)
            | Error m -> Alcotest.failf "bad body: %s" m
          in
          read_one "p1";
          read_one "p2"))

(* Slow-loris defence: a connection stalled mid-request-head is evicted
   at the idle deadline with a 408 (no response bytes were in flight)
   and closed. *)
let test_idle_timeout_evicts () =
  with_server ~idle_timeout:0.3 (fun _pool server ->
      let port = Server.Daemon.port server in
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          write_all fd "POST /solve HTTP/1.1\r\nHost: t\r\n";
          let ic = Unix.in_channel_of_descr fd in
          let status, headers = read_head ic in
          Alcotest.(check int) "408 on idle eviction" 408 status;
          (match List.assoc_opt "content-length" headers with
          | Some n -> ignore (really_input_string ic (int_of_string n))
          | None -> ());
          Alcotest.(check bool) "connection closed after 408" true
            (match input_char ic with
            | _ -> false
            | exception End_of_file -> true)))

(* Connections beyond --max-conns are answered 503 + Retry-After and
   closed without ever reaching a fiber; closing the occupying
   connection frees the slot. *)
let test_max_conns_503 () =
  with_server ~max_conns:1 (fun _pool server ->
      let port = Server.Daemon.port server in
      let fd1 = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd1 with _ -> ())
        (fun () ->
          (* Occupy the only slot with a completed keep-alive request, so
             the connection is adopted and stays live. *)
          let body = job_line ~id:"occupant" () in
          write_all fd1
            (Printf.sprintf
               "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
               (String.length body) body);
          let ic1 = Unix.in_channel_of_descr fd1 in
          let status, headers = read_head ic1 in
          Alcotest.(check int) "occupant 200" 200 status;
          (match List.assoc_opt "content-length" headers with
          | Some n -> ignore (really_input_string ic1 (int_of_string n))
          | None -> Alcotest.fail "expected content-length");
          let fd2 = connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd2 with _ -> ())
            (fun () ->
              let ic2 = Unix.in_channel_of_descr fd2 in
              let status, headers = read_head ic2 in
              Alcotest.(check int) "over-cap conn is 503" 503 status;
              Alcotest.(check bool) "retry-after set" true
                (List.assoc_opt "retry-after" headers <> None)));
      (* fd1 is closed by the Fun.protect finaliser above; give the
         reactor a beat to cull the connection, then check the slot is
         free again. *)
      Unix.sleepf 0.5;
      let status, _, _ = post port "/solve" (job_line ~id:"after" ()) in
      Alcotest.(check int) "accepted after slot freed" 200 status)

(* /sweep: a chunked NDJSON stream, one line per grid point in grid
   order, closed by the frontier line; a second identical sweep is
   served point-for-point from the plan cache. *)
let sweep_body =
  {|{"id":"sw","estate":{"kind":"line","n_groups":12,"penalty":40},"milp":{"nodes":2,"time":20},"grid":{"radius_km":[null,50]}}|}

let test_sweep_roundtrip () =
  with_server (fun _pool server ->
      let port = Server.Daemon.port server in
      let run_sweep () =
        let status, headers, body = post port "/sweep" sweep_body in
        Alcotest.(check int) "200" 200 status;
        Alcotest.(check (option string)) "chunked" (Some "chunked")
          (List.assoc_opt "transfer-encoding" headers);
        List.filter (fun l -> String.trim l <> "")
          (String.split_on_char '\n' body)
      in
      let lines = run_sweep () in
      Alcotest.(check int) "2 points + frontier" 3 (List.length lines);
      let parsed =
        List.map
          (fun l ->
            match Service.Json.parse l with
            | Ok j -> j
            | Error m -> Alcotest.failf "bad sweep line %S: %s" l m)
          lines
      in
      let member k j = Option.bind (Service.Json.member k j) Service.Json.to_str in
      Alcotest.(check (list (option string))) "grid-order tags"
        [ Some "r=-;c=1;w=-;om=-;l=-"; Some "r=50;c=1;w=-;om=-;l=-"; None ]
        (List.map (member "tag") parsed);
      let last = List.nth parsed 2 in
      Alcotest.(check bool) "frontier line closes the stream" true
        (Service.Json.member "frontier" last <> None);
      (* Repeat: every point must come back as a cache hit. *)
      let again = run_sweep () in
      List.iteri
        (fun i l ->
          if i < 2 then
            Alcotest.(check bool)
              (Printf.sprintf "point %d served from cache" i)
              true
              (Astring_contains.contains l {|"cache":"hit"|}))
        again;
      (* Bad requests are shed before any stream bytes. *)
      let status, _, _ = post port "/sweep" "not json" in
      Alcotest.(check int) "malformed sweep is 400" 400 status;
      let status, _, _ =
        post port "/sweep"
          {|{"estate":{"kind":"line","n_groups":12},"grid":{"omega":"x"}}|}
      in
      Alcotest.(check int) "malformed grid is 400" 400 status;
      let status, _, _ =
        simple_request port
          "GET /sweep HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
      in
      Alcotest.(check int) "GET /sweep is 405" 405 status)

let test_sweep_backpressure_503 () =
  (* Same shedding contract as /solve: with the worker and queue both
     occupied, /sweep must answer 503 + Retry-After before any stream
     bytes rather than block the reactor. *)
  with_server ~workers:1 ~queue:1 (fun pool server ->
      let port = Server.Daemon.port server in
      let slow key =
        Service.Job.v ~milp:line_milp
          (Service.Job.Inline
             {
               key;
               build =
                 (fun () ->
                   Unix.sleepf 0.6;
                   Harness.Line_estate.make
                     { Harness.Line_estate.default with
                       Harness.Line_estate.n_groups = 12 });
             })
      in
      let t1 = Service.Pool.submit pool (slow "slow-a") in
      let t2 = Service.Pool.submit pool (slow "slow-b") in
      let status, headers, _ = post port "/sweep" sweep_body in
      Alcotest.(check int) "503 when queue full" 503 status;
      Alcotest.(check bool) "retry-after set" true
        (List.assoc_opt "retry-after" headers <> None);
      ignore (Service.Pool.await t1);
      ignore (Service.Pool.await t2);
      let status, _, _ = post port "/sweep" sweep_body in
      Alcotest.(check int) "accepted once drained" 200 status)

let suite =
  [
    Alcotest.test_case "http: request parsing" `Quick test_parse_request;
    Alcotest.test_case "http: chunked bodies" `Quick test_parse_chunked;
    Alcotest.test_case "http: keep-alive negotiation" `Quick
      test_keep_alive_negotiation;
    Alcotest.test_case "http: limits and bad requests" `Quick test_limits;
    Alcotest.test_case "server: /solve roundtrip" `Slow test_solve_roundtrip;
    Alcotest.test_case "server: /solve input validation" `Slow
      test_solve_rejects_bad_specs;
    Alcotest.test_case "server: /batch streams before request EOF" `Slow
      test_batch_streams_before_eof;
    Alcotest.test_case "server: /batch body overrun closes the stream" `Slow
      test_batch_overrun_closes_stream;
    Alcotest.test_case "server: /solve backpressure 503" `Slow
      test_solve_backpressure_503;
    Alcotest.test_case "server: keep-alive pipelined requests" `Slow
      test_keepalive_pipelined;
    Alcotest.test_case "server: idle timeout evicts slow-loris" `Slow
      test_idle_timeout_evicts;
    Alcotest.test_case "server: max-conns overflow is 503" `Slow
      test_max_conns_503;
    Alcotest.test_case "server: /sweep streams points and frontier" `Slow
      test_sweep_roundtrip;
    Alcotest.test_case "server: /sweep backpressure 503" `Slow
      test_sweep_backpressure_503;
    Alcotest.test_case "server: /solve answers a cached job on a full queue"
      `Slow test_solve_cached_on_full_queue;
  ]
