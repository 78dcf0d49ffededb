(* Output checks on served plans, and the plan-quality reference.

   Every distinct served plan is checked against its rebuilt estate: the
   placement must validate, and the reported total must equal the exact
   evaluation of the placement.  DR result lines carry only the primary
   placement, so DR plans are read back in full from the server's disk
   store after it shut down.  The greedy baseline gives
   [plan_cost_ratio]. *)

open Etransform
module J = Service.Json

type served = { fp : string; code : string; cache : string; total : float; placement : int array }

let parse_line body =
  match J.parse (String.trim body) with
  | Error e -> Error ("response is not JSON: " ^ e)
  | Ok j -> (
      let str k = Option.bind (J.member k j) J.to_str in
      match (str "fp", str "code", str "cache") with
      | Some fp, Some code, Some cache ->
          let total = Option.value ~default:nan (Option.bind (J.member "total" j) J.to_float) in
          let placement =
            match J.member "placement" j with
            | Some (J.List l) ->
                Array.of_list (List.map (fun v -> Option.value ~default:(-1) (J.to_int v)) l)
            | _ -> [||]
          in
          Ok { fp; code; cache; total; placement }
      | _ -> Error "response lacks fp/code/cache")

type report = {
  mutable checked : int;        (** responses checked *)
  mutable failed : int;         (** responses or plans that failed a check *)
  mutable errors : string list; (** first few failure messages *)
  plans : (string, served) Hashtbl.t;  (** distinct served plans by fp *)
}

let create () = { checked = 0; failed = 0; errors = []; plans = Hashtbl.create 64 }

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.errors < 8 then r.errors <- msg :: r.errors

(* One response: HTTP 200, code ok, the expected fingerprint and cache
   outcome, and the same plan as every earlier answer for that job. *)
let response r ~(job : Gen.job) ~expect_cache ~status ~body =
  r.checked <- r.checked + 1;
  if status <> 200 then fail r (Printf.sprintf "HTTP %d for %s" status job.Gen.fp)
  else
    match parse_line body with
    | Error e -> fail r e
    | Ok p ->
        if p.code <> "ok" then fail r (Printf.sprintf "code %s for %s" p.code p.fp)
        else if p.fp <> job.Gen.fp then fail r "fingerprint differs from the job's"
        else if p.cache <> expect_cache then
          fail r (Printf.sprintf "cache %s for %s, expected %s" p.cache p.fp expect_cache)
        else
          match Hashtbl.find_opt r.plans p.fp with
          | None -> Hashtbl.replace r.plans p.fp p
          | Some q ->
              if q.total <> p.total || q.placement <> p.placement then
                fail r ("two different plans served for " ^ p.fp)

type reference = { served_sum : float; greedy_sum : float; digest : string }

(* Checks every distinct plan in [jobs] (those served) against its rebuilt
   estate; [stored fp] reads the full outcome back from the disk store. *)
let plans r ~(jobs : Gen.job list) ~stored =
  let served_sum = ref 0.0 and greedy_sum = ref 0.0 in
  let lines = ref [] in
  List.iter
    (fun (job : Gen.job) ->
      match Hashtbl.find_opt r.plans job.Gen.fp with
      | None -> ()
      | Some p -> (
          let asis = Service.Job.build_estate (Gen.decode job.Gen.body) in
          let full =
            if not job.Gen.dr then Some (Placement.non_dr p.placement)
            else
              match stored p.fp with
              | Some o when o.Solver.placement.Placement.primary = p.placement ->
                  Some o.Solver.placement
              | Some _ -> fail r ("stored DR plan differs from the served one for " ^ p.fp); None
              | None -> fail r ("DR plan missing from the store for " ^ p.fp); None
          in
          match full with
          | None -> ()
          | Some pl ->
              (match Placement.validate asis pl with
              | [] -> ()
              | e :: _ -> fail r (Printf.sprintf "invalid plan for %s: %s" p.fp e));
              let exact = Evaluate.total (Evaluate.plan asis pl).Evaluate.cost in
              if exact <> p.total then
                fail r (Printf.sprintf "reported total %.17g <> evaluated %.17g for %s" p.total exact p.fp);
              let greedy = if job.Gen.dr then Greedy.plan_dr asis else Greedy.plan asis in
              served_sum := !served_sum +. p.total;
              greedy_sum := !greedy_sum +. Evaluate.total (Evaluate.plan asis greedy).Evaluate.cost;
              lines :=
                Printf.sprintf "%s %h %s" p.fp p.total
                  (String.concat "," (Array.to_list (Array.map string_of_int p.placement)))
                :: !lines))
    jobs;
  {
    served_sum = !served_sum;
    greedy_sum = !greedy_sum;
    digest = Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare !lines)));
  }

(* The plan ledger at [path]: one line per job ever served under this
   workload, seed and server build.  A later run must serve the
   identical plan for every job both runs served. *)
let ledger r ~path =
  let known = Hashtbl.create 256 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char ' ' (input_line ic) with
         | [ fp; total; pl ] -> Hashtbl.replace known fp (total, pl)
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Hashtbl.iter
    (fun fp p ->
      let total = Printf.sprintf "%h" p.total in
      let pl = Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int p.placement)))) in
      match Hashtbl.find_opt known fp with
      | Some (t, l) -> if t <> total || l <> pl then fail r ("plan differs from an earlier run for " ^ fp)
      | None -> Printf.fprintf oc "%s %s %s\n" fp total pl)
    r.plans;
  close_out oc
