(* End-to-end smoke for the streaming sweep surface, run by the
   @sweep-smoke alias.

   Stage 1 (driven by the dune rule): `etransform sweep` runs over the
   sweep_request.json fixture named by the first argument, its output
   piped to stdin (or read from the file named by a second argument).
   The stream must hold one ok point line per grid
   point, in grid order, closed by a frontier line whose tags point back
   into the sweep.

   Stage 2: boot the HTTP daemon on an ephemeral port and POST the same
   request to /sweep: the chunked stream must carry the same points and a
   non-empty frontier; POSTing it again must be served point-for-point
   from the plan cache, and the /metrics scrape must account for both
   sweeps. *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("sweep-smoke: " ^ m);
      exit 1)
    fmt

let check cond fmt =
  Printf.ksprintf (fun m -> if not cond then fail "%s" m) fmt

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let lines_of s =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)

let parse_line l =
  match Service.Json.parse l with
  | Ok j -> j
  | Error m -> fail "unparseable line %S: %s" l m

let str_member k j = Option.bind (Service.Json.member k j) Service.Json.to_str

(* The stream contract shared by the CLI and the HTTP route. *)
let check_stream ~what ~tags body =
  let lines = List.map parse_line (lines_of body) in
  check
    (List.length lines = List.length tags + 1)
    "%s: %d lines for %d points" what (List.length lines) (List.length tags);
  let points, frontier =
    match List.rev lines with
    | last :: rev_points -> (List.rev rev_points, last)
    | [] -> fail "%s: empty stream" what
  in
  List.iteri
    (fun i (want, j) ->
      check (str_member "tag" j = Some want) "%s: point %d tag %s" what i want;
      check
        (str_member "code" j = Some "ok")
        "%s: point %d not ok" what i;
      check
        (Service.Json.member "resilience" j <> None)
        "%s: point %d has no resilience" what i)
    (List.combine tags points);
  (match Service.Json.member "frontier" frontier with
  | Some (Service.Json.List (_ :: _ as front)) ->
      List.iter
        (fun p ->
          match str_member "tag" p with
          | Some t ->
              check (List.mem t tags) "%s: frontier tag %S unknown" what t
          | None -> fail "%s: frontier point without tag" what)
        front
  | _ -> fail "%s: missing or empty frontier" what);
  lines_of body

(* ------------------------------------------------------- HTTP plumbing *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  fd

let read_head ic =
  let status_line = input_line ic in
  let status =
    match String.split_on_char ' ' (String.trim status_line) with
    | _ :: code :: _ -> int_of_string code
    | _ -> fail "bad status line %S" status_line
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

let read_chunked ic =
  let buf = Buffer.create 1024 in
  let rec go () =
    let n = int_of_string ("0x" ^ String.trim (input_line ic)) in
    if n = 0 then (try ignore (input_line ic) with End_of_file -> ())
    else begin
      Buffer.add_string buf (really_input_string ic n);
      ignore (input_line ic);
      go ()
    end
  in
  go ();
  Buffer.contents buf

let request port text =
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
        | None -> (
            match List.assoc_opt "transfer-encoding" headers with
            | Some "chunked" -> read_chunked ic
            | _ -> "")
      in
      (status, headers, body))

let post port path body =
  request port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s"
       path (String.length body) body)

let get port path =
  request port
    (Printf.sprintf
       "GET %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n" path)

(* ------------------------------------------------------------- the run *)

let () =
  let request_file = Sys.argv.(1) in
  let body = read_file request_file in

  (* The expected tag sequence, from the same expansion the service uses. *)
  let job, grid =
    match Service.Json.parse body with
    | Error m -> fail "fixture is not JSON: %s" m
    | Ok j -> (
        match
          Service.Sweep.request_of_json ~resolve:Harness.Line_jobs.resolve j
        with
        | Ok r -> r
        | Error m -> fail "fixture rejected: %s" m)
  in
  let tags = List.map fst (Service.Sweep.expand job grid) in
  check (List.length tags >= 2) "fixture grid too small (%d points)"
    (List.length tags);

  (* Stage 1: the CLI stream piped in by the dune rule. *)
  let cli_stream =
    if Array.length Sys.argv > 2 then read_file Sys.argv.(2)
    else In_channel.input_all stdin
  in
  ignore (check_stream ~what:"cli" ~tags cli_stream);

  (* Stage 2: the same request over HTTP. *)
  let metrics = Service.Metrics.create () in
  let trace = Service.Trace.observer (Service.Metrics.observe_trace metrics) in
  Service.Pool.with_pool ~workers:1 ~queue_capacity:8 ~cache_capacity:32
    ~trace (fun pool ->
      let server =
        Server.Daemon.create ~port:0 ~drain_timeout:10.0
          ~resolve:Harness.Line_jobs.resolve ~metrics ~pool ()
      in
      let th = Thread.create Server.Daemon.run server in
      Fun.protect
        ~finally:(fun () ->
          Server.Daemon.request_stop server;
          Thread.join th)
        (fun () ->
          let port = Server.Daemon.port server in
          let status, headers, first = post port "/sweep" body in
          check (status = 200) "/sweep status %d" status;
          check
            (List.assoc_opt "transfer-encoding" headers = Some "chunked")
            "/sweep response not chunked";
          let first_lines = check_stream ~what:"http" ~tags first in
          (* Same request again: the pool must serve every point from the
             plan cache, and the frontier must come out identical. *)
          let status, _, second = post port "/sweep" body in
          check (status = 200) "repeat /sweep status %d" status;
          let second_lines = check_stream ~what:"http-repeat" ~tags second in
          List.iteri
            (fun i l ->
              if i < List.length tags then
                check
                  (contains ~affix:{|"cache":"hit"|} l)
                  "repeat point %d not a cache hit: %s" i l)
            second_lines;
          (* The frontier itself is deterministic; only wall_s may vary. *)
          let frontier_of ls =
            Service.Json.member "frontier"
              (parse_line (List.nth ls (List.length ls - 1)))
          in
          check
            (frontier_of first_lines = frontier_of second_lines)
            "frontier changed across identical sweeps";
          (* The scrape accounts for both sweeps: 2 sweeps, one miss and
             one hit per grid point, and a live frontier-size gauge. *)
          let n = List.length tags in
          let status, _, scrape = get port "/metrics" in
          check (status = 200) "/metrics status %d" status;
          List.iter
            (fun affix ->
              check (contains ~affix scrape) "/metrics missing %S" affix)
            [
              "etransform_sweeps_total 2";
              Printf.sprintf
                {|etransform_sweep_points_total{cache="miss"} %d|} n;
              Printf.sprintf
                {|etransform_sweep_points_total{cache="hit"} %d|} n;
              "etransform_sweep_frontier_size";
              {|etransform_http_requests_total{route="/sweep",status="200"} 2|};
            ]));
  Printf.printf
    "sweep-smoke: %d points ok (cli + http), repeat sweep fully cached, \
     frontier stable\n"
    (List.length tags)
