(* Seeded workload generation.  Every request the benchmark sends is a
   job spec derived from (workload, seed, index) alone, so one seed always
   yields byte-identical job lists and the server sees nothing but the
   generated specs. *)

module J = Service.Json

type workload = Hot_hits | Tier_churn | Cold_plans | Estate_plans

let workloads = [ Hot_hits; Tier_churn; Cold_plans; Estate_plans ]

let name = function
  | Hot_hits -> "hot_hits"
  | Tier_churn -> "tier_churn"
  | Cold_plans -> "cold_plans"
  | Estate_plans -> "estate_plans"

let of_name s = List.find_opt (fun w -> name w = s) workloads

type job = {
  body : string;  (** the JSON job spec sent to [/solve] *)
  fp : string;    (** its {!Service.Job.fingerprint} *)
  cls : string;   (** job class, for per-class reporting *)
  dr : bool;
}

let decode body =
  match Service.Batch.job_of_line ~resolve:Harness.Line_jobs.resolve body with
  | Ok job -> job
  | Error msg -> failwith (Printf.sprintf "generated job does not decode: %s" msg)

let job ~cls ~dr fields =
  let body = J.to_string (J.Obj fields) in
  { body; fp = Service.Job.fingerprint (decode body); cls; dr }

(* The node budget binds long before the generous CPU-time budget does, so
   every plan is deterministic: [time] never interrupts the search. *)
let milp nodes = ("milp", J.Obj [ ("nodes", J.Num (float nodes)); ("time", J.Num 120.0) ])

(* One PRNG stream per (seed, workload, stream, index): requests can be
   generated lazily and in any order without changing their content. *)
let rng seed w stream i =
  Random.State.make [| seed; Hashtbl.hash (name w); stream; i |]

let uniform st lo hi = lo +. Random.State.float st (hi -. lo)
let int_in st lo hi = lo + Random.State.int st (hi - lo + 1)

(* A line estate (paper §VI-D topology).  [frac_at_0] is drawn at full
   precision, which keeps fingerprints of different seeds disjoint. *)
let line_job st ~id ~groups ~dr ~nodes =
  let estate =
    J.Obj
      [
        ("kind", J.Str "line");
        ("n_groups", J.Num (float groups));
        ("servers_per_group", J.Num (float (int_in st 2 6)));
        ("capacity", J.Num (float (groups * int_in st 3 10)));
        ("space_step", J.Num (float (int_in st 15 120)));
        ("frac_at_0", J.Num (uniform st 0.15 0.85));
        ("penalty", J.Num (float (20 * int_in st 0 4)));
      ]
  in
  let cls = Printf.sprintf "%sline%d" (if dr then "dr_" else "") groups in
  job ~cls ~dr
    ([ ("id", J.Str id); ("estate", estate) ]
    @ (if dr then [ ("dr", J.Bool true) ] else [])
    @ [ milp nodes ])

let dataset_job ~id ~cls ~dr ~nodes ?omega ?seed name ~scale ~groups ~targets =
  let estate =
    J.Obj
      ([ ("kind", J.Str "dataset"); ("name", J.Str name); ("scale", J.Num scale) ]
      @
      match seed with
      | None -> []
      | Some s ->
          [
            ("seed", J.Num (float s));
            ("groups", J.Num (float groups));
            ("targets", J.Num (float targets));
          ])
  in
  job ~cls ~dr
    ([ ("id", J.Str id); ("estate", estate) ]
    @ (if dr then [ ("dr", J.Bool true) ] else [])
    @ (match omega with None -> [] | Some o -> [ ("omega", J.Num o) ])
    @ [ milp nodes ])

let synthetic st ~id ~dr ~nodes ~groups ~targets =
  dataset_job ~id ~dr ~nodes
    ~cls:(Printf.sprintf "%ssynth%dx%d" (if dr then "dr_" else "") groups targets)
    ~seed:(Random.State.bits st) "synthetic" ~scale:1.0 ~groups ~targets

(* ------------------------------------------------------------ workloads *)

(* hot_hits: a working set of small line jobs, solved once in set-up and
   far below the LRU capacity, so every measured request is a memory hit. *)
let hot_cache = 256
let hot_set_size = 48

(* tier_churn: a small LRU in front of the disk store, a working set ten
   times its capacity, and a fixed share of never-seen cheap jobs. *)
let churn_cache = 32
let churn_set_size = 320
let churn_fresh_per_mille = 2

(* Working-set and never-seen jobs of the hit workloads all have ten
   groups: answers are the same size whichever jobs a seed makes hot. *)
let small_line seed w stream i =
  line_job (rng seed w stream i)
    ~id:(Printf.sprintf "%s-%d-%d" (name w) stream i)
    ~groups:10 ~dr:false ~nodes:8

let working_set seed w =
  match w with
  | Hot_hits -> Array.init hot_set_size (small_line seed w 0)
  | Tier_churn -> Array.init churn_set_size (small_line seed w 0)
  | Cold_plans | Estate_plans -> [||]

(* The i-th never-seen job of a workload. *)
let fresh seed w i =
  match w with
  | Hot_hits | Tier_churn -> small_line seed w 1 i
  | Cold_plans -> (
      (* A fixed deck of twelve slots, cycled in order: the seed changes
         every estate but not the mix, so runs of different seeds do the
         same kind of work.  Sorted by solve time, five slots lie below
         the four line-36 slots and three above them (line 48 and DR line
         24): the median falls inside the line-36 class and the p90
         inside the top group, not on a boundary between two classes.
         Synthetic estates of 50 groups and more are left out: their
         solve time varies several-fold between instances, so the p90
         would depend on which instances a seed draws. *)
      let st = rng seed w 1 i in
      let id = Printf.sprintf "cold-%d" i in
      match i mod 12 with
      | 0 -> line_job st ~id ~groups:12 ~dr:false ~nodes:4
      | 1 -> line_job st ~id ~groups:12 ~dr:true ~nodes:4
      | 3 -> line_job st ~id ~groups:24 ~dr:false ~nodes:4
      | 4 | 7 -> synthetic st ~id ~dr:false ~nodes:1 ~groups:30 ~targets:6
      | 2 | 5 | 8 | 11 -> line_job st ~id ~groups:36 ~dr:false ~nodes:4
      | 9 -> line_job st ~id ~groups:48 ~dr:false ~nodes:4
      | _ -> line_job st ~id ~groups:24 ~dr:true ~nodes:4)
  | Estate_plans -> (
      (* An eight-slot deck of the Florida case-study estate at bench
         scales, with and without DR, cycled in order.  At these node
         budgets Florida's root LP is fractional, its tree branches, and
         the MILP does about 87% of each plan's work.  (Enterprise1 below
         x1.0 and synthetic estates of 150-200 groups solve at or near
         the root and spend most of their time in the local-search
         polish; Enterprise1 x1.0 takes over 2 s.)  Plans take about
         0.1-0.8 s of server CPU, so a run of about 40 s has enough of
         them for its p75.  Sorted by solve time, the median falls inside
         the Florida x0.45 2-node class and the p75 inside the 4-node
         one.  Both search the same tree whatever the seed's omega, so
         these percentiles barely depend on the seed. *)
      let st = rng seed w 1 i in
      let id = Printf.sprintf "estate-%d" i in
      let omega = uniform st 0.6 0.9 in
      let florida ~dr ~nodes scale =
        dataset_job ~id
          ~cls:(Printf.sprintf "%sflorida_x%g_n%d" (if dr then "dr_" else "") scale nodes)
          ~dr ~nodes ~omega "florida" ~scale ~groups:0 ~targets:0
      in
      match i mod 8 with
      | 0 | 3 | 6 -> florida ~dr:false ~nodes:4 0.45
      | 2 | 5 | 7 -> florida ~dr:false ~nodes:2 0.45
      | 1 -> florida ~dr:false ~nodes:4 0.3
      | _ -> florida ~dr:true ~nodes:2 0.25)

(* Requests per block when the rate is taken over blocks: one deck cycle
   for the solve workloads, so every block does the same mix. *)
let block = function Hot_hits | Tier_churn -> 1000 | Cold_plans -> 12 | Estate_plans -> 8

(* Skewed (Zipf, exponent 1) draw over the working set: rank r has weight
   1/(r+1), and a seeded permutation maps ranks to jobs. *)
let zipf_table n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float (r + 1));
    cdf.(r) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let draw_rank cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type request = Set of int | Fresh of int

(* The open-loop request sequence: [n] draws, deterministic in the seed. *)
let open_requests seed w n =
  let st = rng seed w 2 0 in
  match w with
  | Hot_hits -> Array.init n (fun _ -> Set (Random.State.int st hot_set_size))
  | Tier_churn ->
      let cdf = zipf_table churn_set_size in
      let perm = Array.init churn_set_size Fun.id in
      for i = churn_set_size - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let fresh = ref 0 in
      Array.init n (fun _ ->
          if Random.State.int st 1000 < churn_fresh_per_mille then begin
            incr fresh;
            Fresh (!fresh - 1)
          end
          else Set perm.(draw_rank cdf (Random.State.float st 1.0)))
  | Cold_plans | Estate_plans -> Array.init n (fun i -> Fresh i)

(* Warm-up jobs sent during set-up.  For the hit workloads this is the
   working set itself; for the solve workloads a few small jobs from a
   stream the measured phase never draws from. *)
let warmup seed w =
  match w with
  | Hot_hits | Tier_churn -> working_set seed w
  | Cold_plans | Estate_plans ->
      (* About 0.1 s of solving: enough CPU-bound work that set-up time
         is not just process start-up, which varies more. *)
      Array.init 8 (fun i ->
          line_job (rng seed w 3 i) ~id:(Printf.sprintf "warmup-%d" i) ~groups:36 ~dr:false ~nodes:4)
