(* The basis factorization of the revised simplex: a product-form eta
   file.  See factor.mli for the interface. *)

(* One eta factor of the product-form inverse: pivoting column [d] into
   row [ep] multiplies B by the identity with column [ep] replaced by
   [d]; we store the pivot value and the off-pivot nonzeros. *)
type eta = { ep : int; erow : int array; evals : float array; epiv : float }

let dummy_eta = { ep = 0; erow = [||]; evals = [||]; epiv = 1.0 }

(* [setas.(0 .. sn-1)], never written once the snapshot is made.  Every
   state factored from one snapshot shares its eta records and array. *)
type snapshot = { sm : int; setas : eta array; sn : int }

(* A snapshot followed by the update etas [etas.(0 .. n-1)], oldest
   first: together they are the one eta file FTRAN runs forwards and
   BTRAN backwards. *)
type t = { base : snapshot; mutable etas : eta array; mutable n : int }

let start base = { base; etas = [||]; n = 0 }

let due t = t.base.sn + t.n >= max 64 (min 128 t.base.sm)

let diagonal dg =
  let sn = Array.fold_left (fun n d -> if d <> 1.0 then n + 1 else n) 0 dg in
  let setas = Array.make sn dummy_eta and k = ref 0 in
  Array.iteri
    (fun i d ->
      if d <> 1.0 then begin
        setas.(!k) <- { ep = i; erow = [||]; evals = [||]; epiv = d };
        incr k
      end)
    dg;
  { sm = Array.length dg; setas; sn }

let update t ~p (d : float array) =
  let m = t.base.sm in
  let nz = ref 0 in
  for i = 0 to m - 1 do
    if i <> p && Float.abs (Array.unsafe_get d i) > 1e-13 then incr nz
  done;
  let erow = Array.make !nz 0 and evals = Array.make !nz 0.0 in
  let k = ref 0 in
  for i = 0 to m - 1 do
    if i <> p && Float.abs (Array.unsafe_get d i) > 1e-13 then begin
      erow.(!k) <- i;
      evals.(!k) <- d.(i);
      incr k
    end
  done;
  let e = { ep = p; erow; evals; epiv = d.(p) } in
  if t.n = Array.length t.etas then begin
    let grown = Array.make (max 32 (2 * t.n)) dummy_eta in
    Array.blit t.etas 0 grown 0 t.n;
    t.etas <- grown
  end;
  t.etas.(t.n) <- e;
  t.n <- t.n + 1

(* x := x with the inverses of [etas.(0 .. n-1)] applied oldest to
   newest. *)
let ftran_etas (etas : eta array) n (x : float array) =
  for k = 0 to n - 1 do
    let e = etas.(k) in
    let xp = x.(e.ep) in
    if xp <> 0.0 then begin
      let s = xp /. e.epiv in
      x.(e.ep) <- s;
      let nr = Array.length e.erow in
      for t = 0 to nr - 1 do
        let i = Array.unsafe_get e.erow t in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (Array.unsafe_get e.evals t *. s))
      done
    end
  done

(* y := y with the transposed inverses applied newest to oldest. *)
let btran_etas (etas : eta array) n (y : float array) =
  for k = n - 1 downto 0 do
    let e = etas.(k) in
    let acc = ref y.(e.ep) in
    let nr = Array.length e.erow in
    for t = 0 to nr - 1 do
      acc :=
        !acc
        -. (Array.unsafe_get e.evals t
            *. Array.unsafe_get y (Array.unsafe_get e.erow t))
    done;
    y.(e.ep) <- !acc /. e.epiv
  done

let ftran t x =
  ftran_etas t.base.setas t.base.sn x;
  ftran_etas t.etas t.n x

let btran t y =
  btran_etas t.etas t.n y;
  btran_etas t.base.setas t.base.sn y

(* [sort_by_key key a] sorts [a] by increasing [key.(a.(i))]: Stdlib's
   ternary heapsort ([Array.sort]) with its comparison inlined.  It makes
   the same comparisons in the same order, so ties end up in exactly the
   places [Array.sort (fun x y -> Int.compare key.(x) key.(y)) a] puts
   them. *)
exception Bottom of int

let sort_by_key (key : int array) (a : int array) =
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if key.(a.(i31)) < key.(a.(i31 + 1)) then i31 + 1 else i31 in
      if key.(a.(x)) < key.(a.(i31 + 2)) then i31 + 2 else x
    end
    else if i31 + 1 < l && key.(a.(i31)) < key.(a.(i31 + 1)) then i31 + 1
    else if i31 < l then i31
    else raise_notrace (Bottom i)
  in
  let rec trickledown l i e =
    let j = maxson l i in
    if key.(a.(j)) > key.(e) then begin
      a.(i) <- a.(j);
      trickledown l j e
    end
    else a.(i) <- e
  in
  let trickle l i e = try trickledown l i e with Bottom i -> a.(i) <- e in
  let rec bubbledown l i =
    let j = maxson l i in
    a.(i) <- a.(j);
    bubbledown l j
  in
  let bubble l i = try bubbledown l i with Bottom i -> i in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if key.(a.(father)) < key.(e) then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* The work of one [build] over [m] rows. *)
type work = {
  wetas : eta array;  (* the etas so far, [wn] of them; a column adds one *)
  mutable wn : int;
  d : float array;  (* the column being transformed; zero between columns *)
  claimed : bool array;  (* rows already taken as pivots *)
  pat : int array;  (* the rows column [t] touches: [mark.(i) = t] *)
  mark : int array;
  nzrow : int array;  (* its rows above the eta threshold, increasing *)
}

(* Scatter column [j] (position [t0] of the order) into [d] and apply
   the etas so far, as [ftran] would and with the same arithmetic, but
   visiting only the rows the column touches; returns the size of its
   pattern, sorted in increasing row order as a dense scan meets it: a
   small one by insertion, a large one read off the marks. *)
let transform w ~cstart ~crow ~cval t0 j =
  let d = w.d and pat = w.pat and mark = w.mark and m = Array.length w.d in
  let np = ref 0 in
  for k = cstart.(j) to cstart.(j + 1) - 1 do
    let i = crow.(k) in
    if mark.(i) <> t0 then begin
      mark.(i) <- t0;
      pat.(!np) <- i;
      incr np
    end;
    d.(i) <- d.(i) +. cval.(k)
  done;
  let etas = w.wetas in
  for k = 0 to w.wn - 1 do
    let e = etas.(k) in
    let xp = d.(e.ep) in
    if xp <> 0.0 then begin
      let s = xp /. e.epiv in
      d.(e.ep) <- s;
      let erow = e.erow and evals = e.evals in
      for q = 0 to Array.length erow - 1 do
        let i = Array.unsafe_get erow q in
        if Array.unsafe_get mark i <> t0 then begin
          Array.unsafe_set mark i t0;
          Array.unsafe_set pat !np i;
          incr np
        end;
        Array.unsafe_set d i
          (Array.unsafe_get d i -. (Array.unsafe_get evals q *. s))
      done
    end
  done;
  let np = !np in
  if np * np <= 4 * m then
    for q = 1 to np - 1 do
      let i = pat.(q) and r = ref (q - 1) in
      while !r >= 0 && pat.(!r) > i do
        pat.(!r + 1) <- pat.(!r);
        decr r
      done;
      pat.(!r + 1) <- i
    done
  else begin
    let q = ref 0 in
    for i = 0 to m - 1 do
      if Array.unsafe_get mark i = t0 then begin
        pat.(!q) <- i;
        incr q
      end
    done
  end;
  np

(* Claim the unclaimed row where the transformed column is largest and
   record its eta; -1 when no row is large enough (the basis is
   singular). *)
let claim w np =
  let d = w.d and pat = w.pat and nzrow = w.nzrow in
  let p = ref (-1) and best = ref 1e-10 and nz = ref 0 in
  for q = 0 to np - 1 do
    let i = Array.unsafe_get pat q in
    let a = Float.abs (Array.unsafe_get d i) in
    if a > 1e-13 then begin
      Array.unsafe_set nzrow !nz i;
      incr nz;
      if a > !best && not w.claimed.(i) then begin
        best := a;
        p := i
      end
    end
  done;
  let p = !p and nz = !nz in
  (* a still-unit column pivoting its own row needs no eta; [p] is
     always among the [nz] recorded rows *)
  if p >= 0 && not (nz = 1 && d.(p) = 1.0) then begin
    let erow = Array.make (nz - 1) 0 and evals = Array.make (nz - 1) 0.0 in
    let k = ref 0 in
    for q = 0 to nz - 1 do
      let i = Array.unsafe_get nzrow q in
      if i <> p then begin
        erow.(!k) <- i;
        evals.(!k) <- Array.unsafe_get d i;
        incr k
      end
    done;
    w.wetas.(w.wn) <- { ep = p; erow; evals; epiv = d.(p) };
    w.wn <- w.wn + 1
  end;
  if p >= 0 then w.claimed.(p) <- true;
  p

(* Columns are factored sparsest-first, each claiming the unclaimed row
   where its transformed value is largest; the basis-to-row assignment
   is permuted accordingly. *)
let build ~cstart ~crow ~cval (cols : int array) =
  let m = Array.length cols in
  let order = Array.init m (fun i -> i) in
  sort_by_key (Array.map (fun j -> cstart.(j + 1) - cstart.(j)) cols) order;
  let w =
    { wetas = Array.make m dummy_eta; wn = 0; d = Array.make m 0.0;
      claimed = Array.make m false; pat = Array.make m 0;
      mark = Array.make m (-1); nzrow = Array.make m 0 }
  in
  let newbasis = Array.make m (-1) in
  let ok = ref true and t = ref 0 in
  while !ok && !t < m do
    let j = cols.(order.(!t)) in
    let np = transform w ~cstart ~crow ~cval !t j in
    let p = claim w np in
    if p < 0 then ok := false else newbasis.(p) <- j;
    for q = 0 to np - 1 do
      Array.unsafe_set w.d (Array.unsafe_get w.pat q) 0.0
    done;
    incr t
  done;
  if !ok then Some ({ sm = m; setas = w.wetas; sn = w.wn }, newbasis) else None
