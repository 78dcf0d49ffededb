(* Feasibility pump (Fischetti, Glover, Lodi).  See fpump.mli for the
   loop; everything here is deterministic, including the anti-cycling
   perturbation, so pump results are reproducible run to run. *)

let hash_rounding ints target =
  let h = ref 0x811c9dc5 in
  let mix v =
    h := (!h lxor v) * 0x01000193 land 0x3FFFFFFF
  in
  Array.iteri
    (fun k j ->
      mix j;
      mix (int_of_float target.(k)))
    ints;
  !h

type outcome = Integral of float array | Near of float array | Failed

(* Consecutive zero-pivot distance solves before the pump concedes the
   vertex will not move: perturbation only changes the objective, and a
   warm solve that performs no pivot proves the optimum is unchanged. *)
let stall_limit = 8

(* Distance solves before the pump gives up and reports its best iterate. *)
let max_rounds = 100

let run ~solve ~(input : Simplex.input) ~int_ids ~int_tol ~start ~stop =
  let ints = Array.of_list int_ids in
  let nint = Array.length ints in
  if nint = 0 then Failed
  else begin
    (* Integral part of each integer variable's box; empty means no
       integer point exists at all and the pump gives up immediately. *)
    let ilo = Array.map (fun j -> Float.ceil (input.Simplex.lo.(j) -. 1e-9)) ints in
    let ihi = Array.map (fun j -> Float.floor (input.Simplex.hi.(j) +. 1e-9)) ints in
    let boxes_ok = ref true in
    Array.iteri (fun k _ -> if ilo.(k) > ihi.(k) then boxes_ok := false) ints;
    if not !boxes_ok then Failed
    else begin
      let round_clamp k v =
        Float.max ilo.(k) (Float.min ihi.(k) (Float.round v))
      in
      let integral x =
        Array.for_all
          (fun j -> Float.abs (x.(j) -. Float.round x.(j)) <= int_tol)
          ints
      in
      (* Tilt direction: the true objective in min convention, sup-norm
         normalized so the decaying weight is scale-free. *)
      let n = input.Simplex.nvars in
      let cmin =
        Array.init n (fun j ->
            if input.Simplex.minimize then input.Simplex.obj.(j)
            else -.input.Simplex.obj.(j))
      in
      let cnorm = Array.fold_left (fun a c -> Float.max a (Float.abs c)) 0.0 cmin in
      let tilt = if cnorm > 0.0 then Array.map (fun c -> c /. cnorm) cmin else cmin in
      let nfrac x =
        Array.fold_left
          (fun a j ->
            if Float.abs (x.(j) -. Float.round x.(j)) > int_tol then a + 1
            else a)
          0 ints
      in
      let seen = Hashtbl.create 64 in
      let target = Array.mapi (fun k j -> round_clamp k start.(j)) ints in
      let prev_x = ref start in
      let restarts = ref 0 in
      let best = ref (nfrac start, start) in
      let stall = ref 0 in
      (* Cheap pre-check: maybe the rounded root point is already feasible
         (common for pure-integer models whose relaxation is near-integral). *)
      let composed () =
        let y = Array.copy !prev_x in
        Array.iteri (fun k j -> y.(j) <- target.(k)) ints;
        y
      in
      let alpha = ref 0.25 in
      let rec pump round =
        if round >= max_rounds || stop () then Near (snd !best)
        else begin
          let y = composed () in
          if Simplex.feasible input y then Integral y
          else begin
            (* Cycle detection on the rounding history. *)
            let h = hash_rounding ints target in
            if Hashtbl.mem seen h then begin
              (* Flip the roundings that disagree most with the LP point:
                 deterministic, and widening with each restart. *)
              let nflip = min nint (3 + (2 * !restarts)) in
              incr restarts;
              let order = Array.init nint (fun k -> k) in
              Array.sort
                (fun a b ->
                  let da = Float.abs (!prev_x.(ints.(a)) -. target.(a))
                  and db = Float.abs (!prev_x.(ints.(b)) -. target.(b)) in
                  match compare db da with 0 -> compare a b | c -> c)
                order;
              for i = 0 to nflip - 1 do
                let k = order.(i) in
                let dir =
                  if !prev_x.(ints.(k)) > target.(k) then 1.0 else -1.0
                in
                target.(k) <-
                  Float.max ilo.(k) (Float.min ihi.(k) (target.(k) +. dir))
              done
            end;
            Hashtbl.replace seen h ();
            (* Distance objective: pull integer variables toward their
               rounded values; interior roundings (rare: general-integer
               variables rounded strictly inside their box) get no pull. *)
            let dist = Array.map (fun c -> !alpha *. c) tilt in
            Array.iteri
              (fun k j ->
                if target.(k) >= ihi.(k) -. 1e-9 then
                  dist.(j) <- dist.(j) -. 1.0
                else if target.(k) <= ilo.(k) +. 1e-9 then
                  dist.(j) <- dist.(j) +. 1.0)
              ints;
            alpha := !alpha *. 0.75;
            let r =
              solve
                { input with Simplex.obj = dist; obj_const = 0.0; minimize = true }
            in
            if r.Simplex.status <> Status.Optimal then Near (snd !best)
            else if integral r.Simplex.x then Integral r.Simplex.x
            else begin
              let f = nfrac r.Simplex.x in
              if f < fst !best then best := (f, r.Simplex.x);
              (* A warm solve with zero pivots proves the vertex did not
                 move under the new distance objective; several in a row
                 means the pump is pinned and further rounds are wasted. *)
              if r.Simplex.iterations = 0 then incr stall else stall := 0;
              if !stall >= stall_limit then Near (snd !best)
              else begin
                prev_x := r.Simplex.x;
                Array.iteri
                  (fun k j -> target.(k) <- round_clamp k r.Simplex.x.(j))
                  ints;
                pump (round + 1)
              end
            end
          end
        end
      in
      pump 0
    end
  end
