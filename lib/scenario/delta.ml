open Etransform

type change =
  | Resize of string * int
  | Scale_data of string * float
  | Retire of string
  | Add of App_group.t * int

(* Changes address groups by name; indices in [colocate_avoid] are
   remapped after retirements so surviving shared-risk pairs keep
   pointing at each other. *)
let apply asis changes =
  let items =
    ref
      (Array.to_list
         (Array.mapi
            (fun i g -> (Some i, g, asis.Asis.current_placement.(i)))
            asis.Asis.groups))
  in
  let map_named name f =
    items :=
      List.map
        (fun (o, g, cp) ->
          if g.App_group.name = name then (o, f g, cp) else (o, g, cp))
        !items
  in
  List.iter
    (function
      | Resize (name, servers) ->
          map_named name (fun g -> { g with App_group.servers })
      | Scale_data (name, k) ->
          map_named name (fun g ->
              {
                g with
                App_group.data_mb_month = g.App_group.data_mb_month *. k;
              })
      | Retire name ->
          items :=
            List.filter (fun (_, g, _) -> g.App_group.name <> name) !items
      | Add (g, cp) -> items := !items @ [ (None, g, cp) ])
    changes;
  let final = Array.of_list !items in
  let m = Array.length final in
  (* old group index -> new index, for colocate_avoid remapping *)
  let new_of_old = Hashtbl.create 16 in
  Array.iteri
    (fun i (o, _, _) ->
      match o with Some old -> Hashtbl.add new_of_old old i | None -> ())
    final;
  let groups =
    Array.map
      (fun (o, g, _) ->
        let avoid =
          match o with
          | Some _ ->
              List.filter_map
                (fun j -> Hashtbl.find_opt new_of_old j)
                g.App_group.colocate_avoid
          | None ->
              (* freshly added groups reference the new estate directly *)
              List.filter (fun j -> j >= 0 && j < m) g.App_group.colocate_avoid
        in
        { g with App_group.colocate_avoid = avoid })
      final
  in
  let current_placement = Array.map (fun (_, _, cp) -> cp) final in
  { asis with Asis.groups; current_placement }

(* ---------------------------------------------------------- fingerprint *)

let fingerprint (p : Placement.t) =
  let b = Buffer.create 128 in
  Buffer.add_string b "plan:v1";
  Array.iter
    (fun j -> Buffer.add_string b (Printf.sprintf ";%d" j))
    p.Placement.primary;
  (match p.Placement.secondary with
  | None -> Buffer.add_string b "|-"
  | Some sec ->
      Buffer.add_char b '|';
      Array.iter (fun j -> Buffer.add_string b (Printf.sprintf ";%d" j)) sec);
  (* The pool rule's tag, kept so fingerprints keep their bytes. *)
  Buffer.add_string b "|s";
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ----------------------------------------------------------------- pins *)

(* A group is pinned when a group of the same name existed in the
   previous estate with identical structure (servers, data, users,
   latency, placement restrictions).  Such a group saw the same column
   costs before, so its previous primary is a sound warm start; anything
   that changed — or whose shared-risk partners changed — re-enters the
   optimization. *)
let pins ~previous:(prev_asis, (prev_place : Placement.t)) asis =
  let prev_by_name = Hashtbl.create 16 in
  Array.iteri
    (fun k (g : App_group.t) -> Hashtbl.replace prev_by_name g.App_group.name k)
    prev_asis.Asis.groups;
  let same (a : App_group.t) (b : App_group.t) =
    a.App_group.servers = b.App_group.servers
    && a.App_group.data_mb_month = b.App_group.data_mb_month
    && a.App_group.users = b.App_group.users
    && a.App_group.latency = b.App_group.latency
    && a.App_group.allowed_dcs = b.App_group.allowed_dcs
  in
  let out = ref [] in
  Array.iteri
    (fun i (g : App_group.t) ->
      match Hashtbl.find_opt prev_by_name g.App_group.name with
      | Some k
        when same g prev_asis.Asis.groups.(k)
             && g.App_group.colocate_avoid = [] ->
          out := (i, prev_place.Placement.primary.(k)) :: !out
      | _ -> ())
    asis.Asis.groups;
  List.rev !out

type replanned = {
  outcome : Solver.outcome;
  pinned : int;
  previous_fingerprint : string;
}

let replan ?(builder = Lp_builder.default_options)
    ?(milp = Solver.default_milp_options) ?(local_search = true)
    ~previous:(prev_asis, prev_place) asis =
  let pinned = pins ~previous:(prev_asis, prev_place) asis in
  let builder =
    { builder with Lp_builder.pins = pinned @ builder.Lp_builder.pins }
  in
  let outcome = Solver.consolidate ~builder ~milp ~local_search asis in
  {
    outcome;
    pinned = List.length pinned;
    previous_fingerprint = fingerprint prev_place;
  }
