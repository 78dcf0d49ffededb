type t = { primary : int array; secondary : int array option }

let non_dr primary = { primary; secondary = None }

let with_dr ~primary ~secondary () =
  if Array.length primary <> Array.length secondary then
    invalid_arg "Placement.with_dr: length mismatch";
  { primary; secondary = Some secondary }

let servers_per_dc asis t =
  let counts = Array.make (Asis.num_targets asis) 0 in
  Array.iteri
    (fun i j ->
      counts.(j) <- counts.(j) + asis.Asis.groups.(i).App_group.servers)
    t.primary;
  counts

let backup_servers asis t =
  let n = Asis.num_targets asis in
  match t.secondary with
  | None -> Array.make n 0.0
  | Some sec ->
      (* pair.(a).(b): servers with primary a and secondary b; the pool at
         b must cover the worst single failing primary site. *)
      let pair = Array.make_matrix n n 0.0 in
      Array.iteri
        (fun i b ->
          let a = t.primary.(i) in
          pair.(a).(b) <-
            pair.(a).(b) +. float_of_int asis.Asis.groups.(i).App_group.servers)
        sec;
      Array.init n (fun b ->
          let worst = ref 0.0 in
          for a = 0 to n - 1 do
            if pair.(a).(b) > !worst then worst := pair.(a).(b)
          done;
          !worst)

let dcs_used asis t =
  let n = Asis.num_targets asis in
  let used = Array.make n false in
  Array.iter (fun j -> used.(j) <- true) t.primary;
  Array.iteri
    (fun b g -> if g > 0.0 then used.(b) <- true)
    (backup_servers asis t);
  Array.fold_left (fun a u -> if u then a + 1 else a) 0 used

let validate asis t =
  let problems = ref [] in
  let bad fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  if Array.length t.primary <> m then
    bad "plan covers %d groups, expected %d" (Array.length t.primary) m;
  let indices_ok = ref (Array.length t.primary = m) in
  Array.iteri
    (fun i j ->
      if j < 0 || j >= n then begin
        indices_ok := false;
        bad "group %d placed in unknown target %d" i j
      end
      else if not (App_group.allowed asis.Asis.groups.(i) j) then
        bad "group %d placed in disallowed target %d" i j)
    t.primary;
  (* Shared-risk separation. *)
  Array.iteri
    (fun i (g : App_group.t) ->
      List.iter
        (fun other ->
          if
            other >= 0 && other < m && other <> i
            && t.primary.(other) = t.primary.(i)
          then bad "groups %d and %d share DC %d but must be separated" i other
            t.primary.(i))
        g.App_group.colocate_avoid)
    asis.Asis.groups;
  (match t.secondary with
  | None -> ()
  | Some sec ->
      if Array.length sec <> m then begin
        indices_ok := false;
        bad "secondary covers %d groups, expected %d" (Array.length sec) m
      end;
      Array.iteri
        (fun i b ->
          if b < 0 || b >= n then begin
            indices_ok := false;
            bad "group %d has unknown secondary %d" i b
          end
          else if i < Array.length t.primary && b = t.primary.(i) then
            bad "group %d has identical primary and secondary %d" i b
          else if i < m && not (App_group.allowed asis.Asis.groups.(i) b) then
            bad "group %d backed up in disallowed target %d" i b)
        sec);
  (* Loads are only well-defined once every index is in range. *)
  if !indices_ok then begin
    let primaries = servers_per_dc asis t in
    let backups = backup_servers asis t in
    Array.iteri
      (fun j (dc : Data_center.t) ->
        let load = float_of_int primaries.(j) +. backups.(j) in
        if load > float_of_int dc.Data_center.capacity +. 1e-9 then
          bad "target %s over capacity: %.0f > %d" dc.Data_center.name load
            dc.Data_center.capacity)
      asis.Asis.targets
  end;
  List.rev !problems

let pp asis ppf t =
  let counts = servers_per_dc asis t in
  let backups = backup_servers asis t in
  Array.iteri
    (fun j (dc : Data_center.t) ->
      if counts.(j) > 0 || backups.(j) > 0.0 then
        Fmt.pf ppf "%s: %d servers%s@." dc.Data_center.name counts.(j)
          (if backups.(j) > 0.0 then
             Printf.sprintf " + %.0f backups" backups.(j)
           else ""))
    asis.Asis.targets
