(* Binary wire/disk form of a Solver.outcome.  One format serves both
   the on-disk segment entries and the GET /cache/<fp> response body, so
   a peer fetch is byte-identical to a local disk read.  Floats travel
   as IEEE-754 bit patterns (exact round-trip — cache identity must not
   depend on decimal printing), everything big-endian, versioned by the
   leading magic.  [decode] never raises: any malformed, truncated or
   future-versioned payload is [None], which the cache layers read as a
   miss. *)

open Etransform

let magic = "ETP1"

let status_code = function
  | Lp.Status.Optimal -> 0
  | Lp.Status.Infeasible -> 1
  | Lp.Status.Unbounded -> 2
  | Lp.Status.Iteration_limit -> 3
  | Lp.Status.Node_limit -> 4
  | Lp.Status.Time_limit -> 5
  | Lp.Status.Feasible -> 6

let status_of_code = function
  | 0 -> Some Lp.Status.Optimal
  | 1 -> Some Lp.Status.Infeasible
  | 2 -> Some Lp.Status.Unbounded
  | 3 -> Some Lp.Status.Iteration_limit
  | 4 -> Some Lp.Status.Node_limit
  | 5 -> Some Lp.Status.Time_limit
  | 6 -> Some Lp.Status.Feasible
  | _ -> None

let encode (o : Solver.outcome) =
  let buf = Buffer.create 1024 in
  let u8 v = Buffer.add_uint8 buf v in
  let i32 v = Buffer.add_int32_be buf (Int32.of_int v) in
  let i64 v = Buffer.add_int64_be buf (Int64.of_int v) in
  let f64 v = Buffer.add_int64_be buf (Int64.bits_of_float v) in
  let int_array a =
    i32 (Array.length a);
    Array.iter i32 a
  in
  let float_array a =
    i32 (Array.length a);
    Array.iter f64 a
  in
  Buffer.add_string buf magic;
  u8 (status_code o.Solver.milp_status);
  f64 o.Solver.milp_gap;
  i64 o.Solver.nodes;
  i64 o.Solver.lp_iterations;
  i64 o.Solver.local_moves;
  let p = o.Solver.placement in
  int_array p.Placement.primary;
  (match p.Placement.secondary with
  | None -> u8 0
  | Some s ->
      u8 1;
      int_array s);
  (* A reserved byte, always 0, so entries already on disk keep their
     layout; [decode] reads any other value as a miss. *)
  u8 0;
  let s = o.Solver.summary in
  let c = s.Evaluate.cost in
  f64 c.Evaluate.space;
  f64 c.Evaluate.wan;
  f64 c.Evaluate.power;
  f64 c.Evaluate.labor;
  f64 c.Evaluate.fixed;
  f64 c.Evaluate.latency_penalty;
  f64 c.Evaluate.backup_capex;
  f64 c.Evaluate.backup_ops;
  i32 s.Evaluate.violations;
  i32 s.Evaluate.dcs_used;
  int_array s.Evaluate.servers;
  float_array s.Evaluate.backups;
  Buffer.contents buf

(* Array lengths are bounded before allocation so a corrupt length field
   cannot ask for gigabytes. *)
let max_array = 1 lsl 22

exception Bad

let decode s =
  let pos = ref 0 in
  let need n = if !pos + n > String.length s then raise Bad in
  let u8 () =
    need 1;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let i64 () =
    need 8;
    let v = String.get_int64_be s !pos in
    pos := !pos + 8;
    v
  in
  let i32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_be s !pos) in
    pos := !pos + 4;
    v
  in
  let f64 () = Int64.float_of_bits (i64 ()) in
  let len () =
    let n = i32 () in
    if n < 0 || n > max_array then raise Bad;
    n
  in
  let int_array () = Array.init (len ()) (fun _ -> i32 ()) in
  let float_array () = Array.init (len ()) (fun _ -> f64 ()) in
  try
    need 4;
    if String.sub s 0 4 <> magic then raise Bad;
    pos := 4;
    let milp_status =
      match status_of_code (u8 ()) with Some st -> st | None -> raise Bad
    in
    let milp_gap = f64 () in
    let nodes = Int64.to_int (i64 ()) in
    let lp_iterations = Int64.to_int (i64 ()) in
    let local_moves = Int64.to_int (i64 ()) in
    let primary = int_array () in
    let secondary = if u8 () = 1 then Some (int_array ()) else None in
    if u8 () <> 0 then raise Bad;
    let space = f64 () in
    let wan = f64 () in
    let power = f64 () in
    let labor = f64 () in
    let fixed = f64 () in
    let latency_penalty = f64 () in
    let backup_capex = f64 () in
    let backup_ops = f64 () in
    let violations = i32 () in
    let dcs_used = i32 () in
    let servers = int_array () in
    let backups = float_array () in
    if !pos <> String.length s then raise Bad;
    Some
      {
        Solver.placement =
          { Placement.primary; secondary };
        summary =
          {
            Evaluate.cost =
              {
                Evaluate.space;
                wan;
                power;
                labor;
                fixed;
                latency_penalty;
                backup_capex;
                backup_ops;
              };
            violations;
            dcs_used;
            servers;
            backups;
          };
        milp_status;
        milp_gap;
        nodes;
        lp_iterations;
        local_moves;
      }
  with Bad | Invalid_argument _ -> None
