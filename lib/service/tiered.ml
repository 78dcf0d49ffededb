type tier = {
  name : string;
  remote : bool;
  find : string -> Etransform.Solver.outcome option;
  store : capped:bool -> string -> Etransform.Solver.outcome -> unit;
  bytes : (unit -> float) option;
}

type t = {
  lru : Etransform.Solver.outcome Cache.t;
  tiers : tier list;
  local : tier list;  (* [tiers] without the remote ones *)
  prefix : tier list;  (* [tiers] up to the first remote one *)
  counts : (string * string, int ref) Hashtbl.t;
  lock : Mutex.t;
}

let create ?(tiers = []) ~cache_capacity () =
  let rec prefix = function
    | { remote = false; _ } as tr :: rest -> tr :: prefix rest
    | _ -> []
  in
  {
    lru = Cache.create ~capacity:(max 0 cache_capacity) ();
    tiers;
    local = List.filter (fun tr -> not tr.remote) tiers;
    prefix = prefix tiers;
    counts = Hashtbl.create 8;
    lock = Mutex.create ();
  }

let lru t = t.lru
let tier_names t = "memory" :: List.map (fun tr -> tr.name) t.tiers

let count t tier result =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.counts (tier, result) with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counts (tier, result) (ref 1));
  Mutex.unlock t.lock

let counts t =
  Mutex.lock t.lock;
  let l = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counts [] in
  Mutex.unlock t.lock;
  List.sort compare l

(* Promotion: a hit at tier [i] back-fills every cheaper tier, so the
   next identical lookup stops earlier — a peer-fetched plan lands in
   both the LRU and the local disk store.  Promotions are never capped
   by construction (capped solves are refused at insert time and so are
   never found in any tier). *)
let promote t missed fingerprint outcome =
  Cache.add t.lru fingerprint outcome;
  List.iter (fun tr -> tr.store ~capped:false fingerprint outcome) missed

(* The one lookup walk: memory, then [tiers] in order.  A hit counts
   every tier it passed as a miss and itself as a hit.  A miss counts
   every tier as a miss, unless [quiet]: the caller repeats that lookup
   with [find], which does the counting. *)
let walk t tiers ~quiet fingerprint =
  let misses missed =
    count t "memory" "miss";
    List.iter (fun tr -> count t tr.name "miss") missed
  in
  match Cache.find t.lru fingerprint with
  | Some outcome ->
      count t "memory" "hit";
      Some (outcome, "memory")
  | None ->
      let rec descend missed = function
        | [] ->
            if not quiet then misses missed;
            None
        | tr :: rest -> (
            match tr.find fingerprint with
            | Some outcome ->
                misses missed;
                count t tr.name "hit";
                promote t (List.rev missed) fingerprint outcome;
                Some (outcome, tr.name)
            | None -> descend (tr :: missed) rest)
      in
      descend [] tiers

let find t fingerprint = walk t t.tiers ~quiet:false fingerprint

let find_local t fingerprint =
  Option.map fst (walk t t.local ~quiet:false fingerprint)

let probe t fingerprint = walk t t.prefix ~quiet:true fingerprint

let add t ~capped fingerprint outcome =
  if not capped then Cache.add t.lru fingerprint outcome;
  (* Tiers see the capped bit themselves: the disk store re-checks it at
     its own boundary (defense in depth against future callers that skip
     this front). *)
  List.iter (fun tr -> tr.store ~capped fingerprint outcome) t.tiers

let keys t =
  List.sort_uniq compare (Cache.keys t.lru)

let disk_bytes t =
  let rec first = function
    | [] -> None
    | { bytes = Some f; _ } :: _ -> Some f
    | _ :: rest -> first rest
  in
  first t.tiers
