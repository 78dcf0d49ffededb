(* Root cutting planes.  See cuts.mli for the overview; the geometry
   below leans on the simplex frame layout ({!Simplex.layout}):
   structural columns 0..n-1, then one slack column per inequality row
   assigned in row order (coefficient +1 for Le, -1 for Ge), then one
   pinned artificial per row. *)

type stats = { gomory : int; cover : int; rounds : int }

let total s = s.gomory + s.cover

(* ---------- Gomory mixed-integer cuts ---------- *)

let near_integral v = Float.abs (v -. Float.round v) <= 1e-9

(* The coefficient of row [k]'s slack: +1 on Le, -1 on Ge. *)
let sigma (rows : Model.row array) k =
  match rows.(k).sense with Model.Le -> 1.0 | Model.Ge | Model.Eq -> -1.0

(* The tableau row w · [A | S] into [abar] (one entry per column before
   the artificials), and its right-hand side w · b. *)
let tableau_row rows slack abar (w : float array) =
  Array.fill abar 0 (Array.length abar) 0.0;
  Array.iteri
    (fun k { Model.ids; coefs; _ } ->
      let wk = w.(k) in
      if Float.abs wk > 1e-13 then
        for t = 0 to Array.length ids - 1 do
          let j = ids.(t) in
          abar.(j) <- abar.(j) +. (wk *. coefs.(t))
        done)
    rows;
  Array.iteri
    (fun k s -> if s >= 0 then abar.(s) <- w.(k) *. sigma rows k)
    slack;
  let beta = ref 0.0 in
  for k = 0 to Array.length rows - 1 do
    beta := !beta +. (w.(k) *. rows.(k).Model.rhs)
  done;
  !beta

(* The row's basic value with every nonbasic column shifted onto its
   active bound, a numeric check against the LP point; nan when some
   nonbasic column has no finite bound to shift onto. *)
let shifted_value (input : Simplex.input) vstat abar beta =
  let n = input.Simplex.nvars in
  let ok = ref true and shifted = ref beta in
  for j = 0 to Array.length abar - 1 do
    match vstat.(j) with
    | Simplex.Basic -> ()
    | Simplex.At_lower ->
        let l = if j < n then input.Simplex.lo.(j) else 0.0 in
        shifted := !shifted -. (abar.(j) *. l)
    | Simplex.At_upper ->
        let u = if j < n then input.Simplex.hi.(j) else infinity in
        if u = infinity then ok := false
        else shifted := !shifted -. (abar.(j) *. u)
    | Simplex.Free_nb -> if Float.abs abar.(j) > 1e-7 then ok := false
  done;
  if !ok then !shifted else nan

(* The GMI cut of the tableau row [abar], whose shifted basic value has
   fractional part [f0], over the shifted nonbasics t_j >= 0, with the
   slacks substituted out: its coefficients over the structurals into
   [coef], and its right-hand side (the cut is coef · x >= rhs). *)
let gmi ~integer (input : Simplex.input) vstat row_of_slack abar f0 coef =
  let n = input.Simplex.nvars and rows = input.Simplex.rows in
  let lo = input.Simplex.lo and hi = input.Simplex.hi in
  Array.fill coef 0 n 0.0;
  let cut_rhs = ref 1.0 in
  for j = 0 to Array.length abar - 1 do
    match vstat.(j) with
    | Simplex.Basic | Simplex.Free_nb -> ()
    | (Simplex.At_lower | Simplex.At_upper) as s ->
        let up = s = Simplex.At_upper in
        let c = if up then -.abar.(j) else abar.(j) in
        let int_shift =
          j < n && integer.(j) && near_integral (if up then hi.(j) else lo.(j))
        in
        let gamma =
          if int_shift then begin
            let fj = c -. Float.floor c in
            if fj <= f0 then fj /. f0 else (1.0 -. fj) /. (1.0 -. f0)
          end
          else if c >= 0.0 then c /. f0
          else -.c /. (1.0 -. f0)
        in
        if Float.abs gamma > 1e-12 then
          if up then begin
            (* slacks have no finite upper bound, so only structurals
               land here *)
            coef.(j) <- coef.(j) -. gamma;
            cut_rhs := !cut_rhs -. (gamma *. hi.(j))
          end
          else if j < n then begin
            coef.(j) <- coef.(j) +. gamma;
            cut_rhs := !cut_rhs +. (gamma *. lo.(j))
          end
          else begin
            (* slack at lower (0): substitute
               s = sigma * (rhs_k - row_k . x). *)
            let k = row_of_slack.(j - n) in
            let sg = sigma rows k and { Model.ids; coefs; rhs = rk; _ } = rows.(k) in
            for t = 0 to Array.length ids - 1 do
              let jj = ids.(t) in
              coef.(jj) <- coef.(jj) -. (gamma *. sg *. coefs.(t))
            done;
            cut_rhs := !cut_rhs -. (gamma *. sg *. rk)
          end
  done;
  !cut_rhs

(* Hygiene: the cut coef · x >= cut_rhs without its coefficients of at
   most 1e-9, kept when its dynamism is bounded and the LP point [x]
   violates it by more than 1e-4. *)
let hygienic coef cut_rhs (x : float array) =
  let kept = ref 0 and cmax = ref 0.0 and cmin = ref infinity in
  let lhs_now = ref 0.0 in
  for j = Array.length coef - 1 downto 0 do
    let c = coef.(j) in
    if Float.abs c > 1e-9 then begin
      incr kept;
      cmax := Float.max !cmax (Float.abs c);
      cmin := Float.min !cmin (Float.abs c);
      lhs_now := !lhs_now +. (c *. x.(j))
    end
  done;
  let viol = cut_rhs -. !lhs_now in
  if
    !kept > 0
    && !cmax <= 1e8
    && !cmax /. !cmin <= 1e8
    && Float.abs cut_rhs <= 1e10
    && viol > 1e-4
  then begin
    let ids = Array.make !kept 0 and coefs = Array.make !kept 0.0 in
    let k = ref 0 in
    Array.iteri
      (fun j c ->
        if Float.abs c > 1e-9 then begin
          ids.(!k) <- j;
          coefs.(!k) <- c;
          incr k
        end)
      coef;
    Some { Model.ids; coefs; sense = Model.Ge; rhs = cut_rhs }
  end
  else None

let gomory_cuts ~integer ~int_tol (input : Simplex.input)
    (r : Simplex.result) ~max_cuts =
  match r.Simplex.basis with
  | None -> []
  | Some b -> (
      let rows = input.Simplex.rows in
      let m = Array.length rows and n = input.Simplex.nvars in
      let { Simplex.slack; art0 } = Simplex.layout input in
      (* Slack column [n + s] belongs to row [row_of_slack.(s)]. *)
      let row_of_slack = Array.make m (-1) in
      Array.iteri (fun i s -> if s >= 0 then row_of_slack.(s - n) <- i) slack;
      let vbasis = b.Simplex.vbasis and vstat = b.Simplex.vstat in
      if
        m = 0
        || Array.length vbasis <> m
        || Array.exists (fun c -> c < 0 || c >= art0) vbasis
      then []
      else
        match Simplex.basis_rows input b with
        | None -> []
        | Some basis_row ->
            (* Candidate tableau rows: basic structural integer variable
               with a decently interior fractional part. *)
            let cands = ref [] in
            Array.iter
              (fun c ->
                if c < n && integer.(c) then begin
                  let xv = r.Simplex.x.(c) in
                  let f = xv -. Float.floor xv in
                  let dist = Float.min f (1.0 -. f) in
                  if dist > Float.max 0.005 int_tol then
                    cands := (c, dist) :: !cands
                end)
              vbasis;
            let cands =
              List.sort
                (fun (a, da) (b, db) ->
                  match Float.compare db da with
                  | 0 -> Int.compare a b
                  | c -> c)
                !cands
            in
            let cuts = ref [] and ncuts = ref 0 in
            (* Work rows shared by the candidates, cleared before use. *)
            let abar = Array.make art0 0.0 and coef = Array.make n 0.0 in
            List.iter
              (fun (jb, _) ->
                if !ncuts < max_cuts then begin
                  let beta = tableau_row rows slack abar (basis_row jb) in
                  let sh = shifted_value input vstat abar beta in
                  let xb = r.Simplex.x.(jb) and f0 = sh -. Float.floor sh in
                  if
                    Float.abs (sh -. xb) <= 1e-6 *. (1.0 +. Float.abs xb)
                    && f0 > 0.005 && f0 < 0.995
                  then
                    let cut_rhs =
                      gmi ~integer input vstat row_of_slack abar f0 coef
                    in
                    match hygienic coef cut_rhs r.Simplex.x with
                    | Some cut ->
                        incr ncuts;
                        cuts := cut :: !cuts
                    | None -> ()
                end)
              cands;
            List.rev !cuts)

(* ---------- knapsack cover cuts ---------- *)

let cover_cuts ~integer (input : Simplex.input) x ~base_rows ~max_cuts =
  let lo = input.Simplex.lo and hi = input.Simplex.hi in
  let is_bin j = integer.(j) && lo.(j) = 0.0 && hi.(j) = 1.0 in
  let cuts = ref [] and ncuts = ref 0 in
  (try
     Array.iteri
       (fun ri { Model.ids; coefs; sense; rhs = b } ->
         if
           ri < base_rows
           && (match sense with Model.Le -> true | Model.Ge | Model.Eq -> false)
           && !ncuts < max_cuts
         then begin
           (* Relax non-binary terms to their interval minimum and
              complement negative binary coefficients, leaving a pure
              0/1 knapsack  sum w_k z_k <= cap  with w_k > 0. *)
           let cap = ref b and ok = ref true in
           let items = ref [] in
           for t = 0 to Array.length ids - 1 do
             let j = ids.(t) and c = coefs.(t) in
             if c <> 0.0 then
               if is_bin j then
                 if c > 0.0 then items := (j, c, false, x.(j)) :: !items
                 else begin
                   (* c*x = c - c*(1-x): complement to weight -c. *)
                   cap := !cap -. c;
                   items := (j, -.c, true, 1.0 -. x.(j)) :: !items
                 end
               else begin
                 let mn = if c > 0.0 then c *. lo.(j) else c *. hi.(j) in
                 if Float.is_finite mn then cap := !cap -. mn
                 else ok := false
               end
           done;
           let wsum =
             List.fold_left (fun a (_, w, _, _) -> a +. w) 0.0 !items
           in
           if !ok && !cap >= 0.0 && wsum > !cap +. 1e-9 then begin
             (* Greedy cover: take literals the LP packs hardest first. *)
             let sorted =
               List.sort
                 (fun (i, _, _, za) (j, _, _, zb) ->
                   match Float.compare zb za with
                   | 0 -> Int.compare i j
                   | c -> c)
                 !items
             in
             let cover = ref [] and wt = ref 0.0 in
             (try
                List.iter
                  (fun (j, w, compl, z) ->
                    cover := (j, w, compl, z) :: !cover;
                    wt := !wt +. w;
                    if !wt > !cap +. 1e-9 then raise Exit)
                  sorted
              with Exit -> ());
             if !wt > !cap +. 1e-9 then begin
               (* Minimize: drop low-z members that are not needed to
                  exceed capacity. *)
               let keep = ref [] in
               List.iter
                 (fun (j, w, compl, z) ->
                   if !wt -. w > !cap +. 1e-9 then wt := !wt -. w
                   else keep := (j, w, compl, z) :: !keep)
                 (List.sort
                    (fun (_, _, _, za) (_, _, _, zb) -> Float.compare za zb)
                    !cover);
               let c = !keep in
               let sz = List.length c in
               let zsum =
                 List.fold_left (fun a (_, _, _, z) -> a +. z) 0.0 c
               in
               if zsum > float_of_int (sz - 1) +. 0.005 then begin
                 let rhs = ref (float_of_int (sz - 1)) in
                 let ids = Array.make sz 0 and coefs = Array.make sz 1.0 in
                 List.iteri
                   (fun k (j, _, compl, _) ->
                     ids.(k) <- j;
                     if compl then begin
                       rhs := !rhs -. 1.0;
                       coefs.(k) <- -1.0
                     end)
                   (List.sort
                      (fun (i, _, _, _) (j, _, _, _) -> Int.compare i j)
                      c);
                 incr ncuts;
                 cuts := { Model.ids; coefs; sense = Model.Le; rhs = !rhs } :: !cuts
               end
             end
           end
         end)
       input.Simplex.rows
   with Exit -> ());
  List.rev !cuts

(* ---------- separation driver ---------- *)

(* Extend an optimal basis of [input_old] to the same input with [ncuts]
   inequality rows appended: each new row's slack goes basic (zero cost,
   so dual feasibility is untouched; the violated cut leaves the slack
   below its bound, which is exactly what the dual simplex repairs in a
   few pivots).  Old slack columns keep their indices — new slacks and
   the shifted artificials land after them. *)
let extend_basis (input_old : Simplex.input) (b : Simplex.basis) ncuts =
  let m_old = Array.length input_old.Simplex.rows in
  let art0_old = (Simplex.layout input_old).Simplex.art0 in
  if
    Array.length b.Simplex.vbasis <> m_old
    || Array.length b.Simplex.vstat <> art0_old + m_old
    || Array.exists (fun c -> c < 0 || c >= art0_old) b.Simplex.vbasis
  then None
  else begin
    let m_new = m_old + ncuts and art0_new = art0_old + ncuts in
    let vstat = Array.make (art0_new + m_new) Simplex.At_lower in
    Array.blit b.Simplex.vstat 0 vstat 0 art0_old;
    for k = 0 to ncuts - 1 do
      vstat.(art0_old + k) <- Simplex.Basic
    done;
    Array.blit b.Simplex.vstat art0_old vstat art0_new m_old;
    let vbasis = Array.make m_new 0 in
    Array.blit b.Simplex.vbasis 0 vbasis 0 m_old;
    for k = 0 to ncuts - 1 do
      vbasis.(m_old + k) <- art0_old + k
    done;
    Some { Simplex.vbasis; vstat }
  end

(* Two cuts repeat each other when they have the same sense and the
   same column indices in the same order, and their rhs and each
   coefficient print alike at [%.9g] ([0.0] and [-0.0] do not).  Equal
   bits always print alike; other pairs are compared by [key_9g], and
   printed only when it cannot tell.  The seen cuts are bucketed by a
   hash of their sense and column indices, and compared in place. *)
type seen = (int, Model.row list) Hashtbl.t

let seen () : seen = Hashtbl.create 64

let pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* [%.9g] of a nonzero finite [a] is fixed by its sign and by the nine
   significant digits and the decimal exponent it rounds to.  [key_9g a]
   packs them into one int without printing, when they are certain: [a]
   is scaled into [1e8, 1e9) by an exact power of ten with one rounding,
   an error below 1e-7, so the key is [-1] ("print it") when the scaled
   value lies within 1e-6 of a rounding tie or of the ends of that
   range, or when |a| lies outside [1e-14, 1e31), where the power of ten
   needed is not an exact double. *)
let key_9g a =
  let x = Float.abs a in
  let scaled e =
    let k = 8 - e in
    if k >= 0 && k <= 22 then x *. pow10.(k)
    else if k < 0 && k >= -22 then x /. pow10.(-k)
    else nan
  in
  if x = 0.0 || not (Float.is_finite x) then -1
  else begin
    let e = int_of_float (Float.floor (Float.log10 x)) in
    let s = scaled e in
    let e, s =
      if s < 1e8 then (e - 1, scaled (e - 1))
      else if s >= 1e9 then (e + 1, scaled (e + 1))
      else (e, s)
    in
    if not (s >= 1e8 +. 1.0 && s <= 1e9 -. 1.0) then -1
    else begin
      let fl = Float.floor s in
      let f = s -. fl in
      if Float.abs (f -. 0.5) < 1e-6 then -1
      else begin
        let digits = int_of_float fl + if f > 0.5 then 1 else 0 in
        ((((e + 100) * 1_000_000_000) + digits) * 2)
        + if Float.sign_bit a then 1 else 0
      end
    end
  end

let same_9g a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  ||
  let ka = key_9g a and kb = key_9g b in
  if ka >= 0 && kb >= 0 then ka = kb
  else String.equal (Printf.sprintf "%.9g" a) (Printf.sprintf "%.9g" b)

let bucket_key { Model.ids; sense; _ } =
  let h = ref (match sense with Model.Le -> 0 | Model.Ge -> 1 | Model.Eq -> 2) in
  for k = 0 to Array.length ids - 1 do
    h := (!h * 31) + ids.(k)
  done;
  !h land max_int

let repeats (a : Model.row) (b : Model.row) =
  let n = Array.length a.ids in
  let rec same_terms k =
    k = n
    || a.ids.(k) = b.ids.(k)
       && same_9g a.coefs.(k) b.coefs.(k)
       && same_terms (k + 1)
  in
  a.sense = b.sense && n = Array.length b.ids && same_9g a.rhs b.rhs
  && same_terms 0

let keep_fresh (seen : seen) cuts =
  List.filter
    (fun cut ->
      let key = bucket_key cut in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt seen key) in
      if List.exists (repeats cut) bucket then false
      else begin
        Hashtbl.replace seen key (cut :: bucket);
        true
      end)
    cuts

(* Separation is skipped above this many rows.  The limit fixes which
   models get cuts at all, so moving it changes plans. *)
let max_separation_rows = 768

(* At most this many rounds, each adding at most [max_per_round] cuts of
   each family. *)
let max_rounds = 3
let max_per_round = 16

let strengthen ~(solve : ?warm:Simplex.basis -> Simplex.input -> Simplex.result)
    ~integer ~int_tol ?root ~stop (input0 : Simplex.input) =
  if Array.length input0.Simplex.rows > max_separation_rows then None
  else begin
    let base_rows = Array.length input0.Simplex.rows in
    let seen = seen () in
    (* Reuse the caller's root solve when it already carries a basis: on
       wide models a cold LP is the single most expensive step of the
       whole cut pass, and the caller has usually just paid for it. *)
    let r0 =
      match root with
      | Some (r : Simplex.result)
        when r.Simplex.status = Status.Optimal && r.Simplex.basis <> None ->
          r
      | _ -> solve input0
    in
    if r0.Simplex.status <> Status.Optimal then None
    else begin
      let stats = ref { gomory = 0; cover = 0; rounds = 0 } in
      let rec loop input r round =
        if round >= max_rounds || stop () then (input, r)
        else begin
          let g =
            gomory_cuts ~integer ~int_tol input r ~max_cuts:max_per_round
          in
          let c =
            cover_cuts ~integer input r.Simplex.x ~base_rows
              ~max_cuts:max_per_round
          in
          let fresh = keep_fresh seen (g @ c) in
          if fresh = [] then (input, r)
          else begin
            let ng =
              List.length
                (List.filter (fun (r : Model.row) -> r.sense = Model.Ge) fresh)
            in
            stats :=
              { gomory = !stats.gomory + ng;
                cover = !stats.cover + (List.length fresh - ng);
                rounds = !stats.rounds + 1 };
            let input' =
              { input with
                Simplex.rows =
                  Array.append input.Simplex.rows (Array.of_list fresh) }
            in
            (* Cuts-then-dual-simplex: extend the optimal basis with the new
               slacks basic and let the dual simplex repair the violated
               rows, instead of re-solving the grown LP from scratch. *)
            let warm =
              match r.Simplex.basis with
              | Some b -> extend_basis input b (List.length fresh)
              | None -> None
            in
            let r' = solve ?warm input' in
            if r'.Simplex.status <> Status.Optimal then (input, r)
            else loop input' r' (round + 1)
          end
        end
      in
      let input, r = loop input0 r0 0 in
      if total !stats = 0 then None else Some (input, r, !stats)
    end
  end
