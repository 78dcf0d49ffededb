(* Wire smoke (@wire-smoke): the bytes the service reads and writes,
   printed for a fixed corpus and diffed against test/wire.expected.

   For each job body: its fingerprint, its estate key, and the result
   line of a fixed outcome with fixed timings, under each code.  For
   each malformed document: the parser's error text, offsets included.
   For each well-formed one: its re-rendering.  A change to the request
   path that claims to keep the wire leaves the output byte-identical. *)

module J = Service.Json
open Etransform

let bodies =
  [
    (* line jobs, one with every numeric field at a non-integer value *)
    {|{"id":"line-1","estate":{"kind":"line","n_groups":10,"servers_per_group":4,"capacity":60,"space_step":45,"frac_at_0":0.37123456789012345,"penalty":40},"milp":{"nodes":8,"time":120}}|};
    {|{"id":"line-frac","estate":{"kind":"line","n_dcs":5,"n_groups":7,"servers_per_group":3,"capacity":31,"base_space":1.1,"space_step":0.30000000000000004,"base_latency_ms":2.5e-3,"ms_per_hop":7.25,"latency_exponent":1.5,"users_per_group":333.333,"frac_at_0":0.1,"penalty":12.5,"data_mb_month":1e-7,"use_vpn":true,"vpn_base":1.7976931348623157e308,"vpn_per_ms":5e-324}}|};
    (* dataset jobs *)
    {|{"id":"florida","estate":{"kind":"dataset","name":"florida","scale":0.45},"omega":0.4,"milp":{"nodes":20,"time":120}}|};
    {|{"id":"ent","estate":{"kind":"dataset","name":"enterprise1","scale":0.1},"eos":true,"fixed_charges":true,"milp":{"gap":0.001}}|};
    (* synthetic *)
    {|{"id":"synth","estate":{"kind":"dataset","name":"synthetic","scale":1,"seed":123456789,"groups":12,"targets":4},"milp":{"nodes":8,"time":120}}|};
    (* DR *)
    {|{"id":"dr","estate":{"kind":"line","n_groups":10,"frac_at_0":0.61803398874989485},"dr":true,"reserve":0.2,"dr_server_cost":1234.5,"omega":0.25,"milp":{"nodes":4}}|};
    (* scenario *)
    {|{"id":"scen","estate":{"kind":"dataset","name":"federal","scale":0.25},"dr":true,"scenario":{"radius_km":150.5,"max_concurrent":2,"warning_s":3600,"link_mb_s":12.5,"max_latency_ms":80.25}}|};
    (* ids that need escaping, raw and escaped on input *)
    {|{"id":"q\"uote\\back\/slash","estate":{"kind":"dataset","name":"florida","scale":1}}|};
    "{\"id\":\"ctl\\u0001\\u001f\\n\\r\\t\\b\\f\x7f\",\"estate\":{\"kind\":\"dataset\",\"name\":\"florida\",\"scale\":1}}";
    "{\"id\":\"raw \xc3\xa9t\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\",\"estate\":{\"kind\":\"dataset\",\"name\":\"florida\",\"scale\":1}}";
    {|{"id":"esc \u00e9t\u00C9 \u20ac \ud83d\ude00","estate":{"kind":"dataset","name":"florida","scale":1}}|};
    (* insignificant whitespace everywhere *)
    " \t\r\n{ \"id\" : \"ws\" ,\n\t\"estate\" :\r\n { \"kind\" : \"line\" , \"n_groups\" : 6 } , \"milp\" : { } } \n";
    (* decodes as JSON, fails as a job *)
    {|{"id":"bad","estate":{"kind":"dataset","name":"florida","scale":"big"}}|};
    {|{"estate":{"kind":"moon"}}|};
    {|[1,2,3]|};
  ]

(* Documents for the parser alone, malformed then well-formed. *)
let documents =
  [
    "";
    "   ";
    "{";
    "{\"a\"";
    "{\"a\" 1}";
    "{\"a\":1";
    "{\"a\":1,}";
    "{\"a\":}";
    "{,}";
    "[1,2";
    "[1 2]";
    "[,]";
    "[1,]";
    "\"abc";
    "\"ab\\";
    "\"\\x\"";
    "\"\\u12";
    "\"\\u12\"";
    "\"\\uzzzz\"";
    "\"\\udc00\"";
    "\"\\ud800\"";
    "\"\\ud800x\"";
    "\"\\ud800\\u0041\"";
    "\"\\ud800\\u00\"";
    "tru";
    "nul";
    "fals";
    "falsy";
    "-";
    "+";
    "1.2.3";
    "1e";
    "--1";
    "@";
    "\x00";
    "{} x";
    "1 2";
    "{\"k\":[true,false,null,\"s\\q\"]}";
    "[[[[[[[[[[";
    "0";
    "-0";
    "1e999";
    "-1e999";
    "0.1";
    "1e21";
    "123456789012345678";
    "-2.5E-3";
    "+7";
    ".5";
    "007";
    "1_0";
    "[]";
    "{}";
    " [ 1 , [ ] , { } , \"\" ] ";
    "\"\\/\\\"\\\\\\b\\f\\n\\r\\t\\u0000\\u007f\\u0080\\uFFFF\\uD800\\uDC00\"";
    "{\"a\":1,\"a\":2}";
  ]

let breakdown ~space ~wan ~power ~labor ~fixed ~latency_penalty ~backup_capex
    ~backup_ops =
  {
    Evaluate.space;
    wan;
    power;
    labor;
    fixed;
    latency_penalty;
    backup_capex;
    backup_ops;
  }

(* Two fixed outcomes: one whose numbers print with 12 significant
   digits or fewer, one that needs 17 and one subnormal. *)
let outcome ~latency_penalty ~gap =
  {
    Solver.placement = Placement.non_dr [| 0; 2; 2; 1; 0; 11; 3 |];
    summary =
      {
        Evaluate.cost =
          breakdown ~space:12345.678901234567 ~wan:0.1 ~power:3.0e-9
            ~labor:98765.4321 ~fixed:0.0 ~latency_penalty
            ~backup_capex:(1.0 /. 3.0) ~backup_ops:2.5;
        violations = 3;
        dcs_used = 4;
        servers = [| 1; 2 |];
        backups = [| 0.5 |];
      };
    milp_status = Lp.Status.Node_limit;
    milp_gap = gap;
    nodes = 17;
    lp_iterations = 901;
    local_moves = 2;
  }

let result job fp ~code ~reason ~hit =
  {
    Service.Pool.job;
    fingerprint = fp;
    outcome =
      (match code with
      | Service.Pool.Solved -> Some (outcome ~latency_penalty:0.75 ~gap:0.0125)
      | Service.Pool.Degraded ->
          Some (outcome ~latency_penalty:1e16 ~gap:4.9e-320)
      | Service.Pool.Failed -> None);
    code;
    reason;
    cache_hit = hit;
    cache_tier = (if hit then Some "memory" else None);
    queue_s = 0.00125;
    build_s = 0.25;
    solve_s = 1.0 /. 7.0;
  }

let print_body i body =
  Printf.printf "== body %d\n" i;
  match J.parse body with
  | Error e -> Printf.printf "parse error: %s\n" e
  | Ok j -> (
      Printf.printf "rendered: %s\n" (J.to_string j);
      match Service.Batch.job_of_json ~resolve:Harness.Line_jobs.resolve j with
      | Error e -> Printf.printf "job error: %s\n" e
      | Ok job ->
          let fp = Service.Job.fingerprint job in
          Printf.printf "fingerprint: %s\n" fp;
          Printf.printf "estate key: %s\n"
            (Service.Job.estate_key job.Service.Job.estate);
          List.iter
            (fun (code, reason, hit) ->
              print_endline
                (Service.Batch.result_to_line
                   (result job fp ~code ~reason ~hit)))
            [
              (Service.Pool.Solved, None, true);
              (Service.Pool.Degraded, Some "deadline: \"greedy\"\tplan\n", false);
              (Service.Pool.Failed, Some "engine raised \x01\\", false);
            ])

let () =
  List.iteri print_body bodies;
  print_endline "== documents";
  List.iter
    (fun doc ->
      Printf.printf "%S -> %s\n" doc
        (match J.parse doc with
        | Error e -> "error: " ^ e
        | Ok j -> "ok: " ^ J.to_string j))
    documents
