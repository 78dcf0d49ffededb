type var = { id : int } [@@unboxed]

type sense = Le | Ge | Eq

module Linexpr = struct
  (* Expressions are kept as unreduced trees while being built; rows
     canonicalize them once, when they are added.  Building is O(1) per
     combination, which matters when summing tens of thousands of terms,
     and a [Dot] leaf holds a whole weighted row or column of a builder's
     variable matrix without a node per term. *)
  type t =
    | Zero
    | Const of float
    | Term of float * var
    | Dot of float array * var option array
    | Add of t * t
    | Scale of float * t

  let zero = Zero
  let constant c = if c = 0.0 then Zero else Const c
  let term c v = Term (c, v)
  let var v = Term (1.0, v)

  let dot w vs =
    if Array.length w <> Array.length vs then
      invalid_arg "Model.Linexpr.dot: arrays differ in length";
    Dot (w, vs)

  let add a b =
    match (a, b) with Zero, e | e, Zero -> e | a, b -> Add (a, b)

  let scale k e = if k = 1.0 then e else Scale (k, e)
  let sub a b = add a (scale (-1.0) b)
  let sum es = List.fold_left add Zero es

  (* The terms of a walk, in visiting order, and the sum of its
     constants. *)
  type acc = {
    mutable ids : int array;
    mutable cs : float array;
    mutable n : int;
    mutable const : float;
  }

  let reserve a extra =
    let cap = Array.length a.ids in
    if a.n + extra > cap then begin
      let cap' = max (a.n + extra) (max 8 (2 * cap)) in
      let ids = Array.make cap' 0 and cs = Array.make cap' 0.0 in
      Array.blit a.ids 0 ids 0 a.n;
      Array.blit a.cs 0 cs 0 a.n;
      a.ids <- ids;
      a.cs <- cs
    end

  (* Visits left before right, and multiplies the scales from the root
     down before each coefficient: [k *. c] with [k] the product of the
     enclosing scales, taken outermost first. *)
  let rec walk a k e =
    match e with
    | Zero -> ()
    | Const c -> a.const <- a.const +. (k *. c)
    | Term (c, v) ->
        reserve a 1;
        a.ids.(a.n) <- v.id;
        a.cs.(a.n) <- k *. c;
        a.n <- a.n + 1
    | Dot (w, vs) ->
        reserve a (Array.length vs);
        let ids = a.ids and cs = a.cs and n = ref a.n in
        for t = 0 to Array.length vs - 1 do
          match vs.(t) with
          | None -> ()
          | Some v ->
              ids.(!n) <- v.id;
              cs.(!n) <- k *. w.(t);
              incr n
        done;
        a.n <- !n
    | Add (l, r) ->
        walk a k l;
        walk a k r
    | Scale (s, l) -> walk a (k *. s) l

  let canonical e =
    (* Canonicalize by sort-and-merge over flat id/coefficient arrays
       rather than a hash table: builders emit terms in variable order
       almost always, so the pre-sorted check usually reduces the whole
       pass to one array fill and one merge sweep.  A built-by-prepending
       expression arrives strictly descending; its ids are distinct, so
       reversing it gives the only ascending order.  Any other order goes
       through the pair sort: with repeated ids, its tie order fixes the
       order in which their coefficients are summed. *)
    let a = { ids = [||]; cs = [||]; n = 0; const = 0.0 } in
    walk a 1.0 e;
    let n0 = a.n and ids = a.ids and cs = a.cs in
    let ascending = ref true and descending = ref true in
    for i = 1 to n0 - 1 do
      if ids.(i - 1) > ids.(i) then ascending := false
      else descending := false
    done;
    if !ascending then ()
    else if !descending then
      for i = 0 to (n0 / 2) - 1 do
        let k = n0 - 1 - i in
        let id = ids.(i) and c = cs.(i) in
        ids.(i) <- ids.(k);
        cs.(i) <- cs.(k);
        ids.(k) <- id;
        cs.(k) <- c
      done
    else begin
      (* [Factor.sort_by_key] permutes the positions as [Array.sort] by
         id would permute (id, coefficient) pairs, ties included. *)
      let perm = Array.init n0 Fun.id in
      Factor.sort_by_key ids perm;
      let ids0 = Array.sub ids 0 n0 and cs0 = Array.sub cs 0 n0 in
      for i = 0 to n0 - 1 do
        ids.(i) <- ids0.(perm.(i));
        cs.(i) <- cs0.(perm.(i))
      done
    end;
    let w = ref 0 and i = ref 0 in
    while !i < n0 do
      let id = ids.(!i) in
      let acc = ref 0.0 in
      while !i < n0 && ids.(!i) = id do
        acc := !acc +. cs.(!i);
        incr i
      done;
      if !acc <> 0.0 then begin
        ids.(!w) <- id;
        cs.(!w) <- !acc;
        incr w
      end
    done;
    let w = !w in
    let exact a = if Array.length a = w then a else Array.sub a 0 w in
    (exact ids, exact cs, a.const)

  let terms e =
    let ids, coefs, _ = canonical e in
    (ids, coefs)
end

type row = { ids : int array; coefs : float array; sense : sense; rhs : float }

(* Names laid end to end in one buffer, name [k] ending at [ends.(k)]:
   storing a name allocates no block that a model array points to. *)
type names = { nbuf : Buffer.t; mutable ends : int array; mutable count : int }

type t = {
  mname : string;
  mutable nvars : int;
  mutable lo : float array;
  mutable hi : float array;
  mutable integer : bool array;
  vnames : names;
  mutable row_store : row array;
  rnames : names;
  mutable nrows : int;
  mutable obj_ids : int array;
  mutable obj_coefs : float array;
  mutable obj_const : float;
  mutable min : bool;
}

let empty_names () = { nbuf = Buffer.create 256; ends = [||]; count = 0 }

let create ?(name = "model") () =
  {
    mname = name;
    nvars = 0;
    lo = [||];
    hi = [||];
    integer = [||];
    vnames = empty_names ();
    row_store = [||];
    rnames = empty_names ();
    nrows = 0;
    obj_ids = [||];
    obj_coefs = [||];
    obj_const = 0.0;
    min = true;
  }

let name t = t.mname

(* [store] with room for slot [n], grown by doubling.  [fill] must not
   be a young block: [Array.make] of more than 256 words from a young
   value forces a minor collection. *)
let grow store n fill =
  let cap = Array.length store in
  if n < cap then store
  else begin
    let store' = Array.make (max 16 (2 * cap)) fill in
    Array.blit store 0 store' 0 cap;
    store'
  end

let add_name ns s =
  Buffer.add_string ns.nbuf s;
  ns.ends <- grow ns.ends ns.count 0;
  ns.ends.(ns.count) <- Buffer.length ns.nbuf;
  ns.count <- ns.count + 1

let name_at ns k =
  let start = if k = 0 then 0 else ns.ends.(k - 1) in
  Buffer.sub ns.nbuf start (ns.ends.(k) - start)

let add_var t ?(lo = 0.0) ?(hi = infinity) ?(integer = false) ?(binary = false)
    vname =
  let lo, hi, integer = if binary then (0.0, 1.0, true) else (lo, hi, integer) in
  let id = t.nvars in
  t.lo <- grow t.lo id 0.0;
  t.hi <- grow t.hi id 0.0;
  t.integer <- grow t.integer id false;
  t.lo.(id) <- lo;
  t.hi.(id) <- hi;
  t.integer.(id) <- integer;
  add_name t.vnames vname;
  t.nvars <- id + 1;
  { id }

(* The filler of the row store: built once, so never young. *)
let no_row = { ids = [||]; coefs = [||]; sense = Eq; rhs = 0.0 }

let add_constr t cname expr sense rhs =
  (* The stored row is in canonical [ids coefs sense rhs] form: any
     constant part of the expression moves to the right-hand side. *)
  let ids, coefs, c = Linexpr.canonical expr in
  t.row_store <- grow t.row_store t.nrows no_row;
  t.row_store.(t.nrows) <- { ids; coefs; sense; rhs = rhs -. c };
  add_name t.rnames cname;
  t.nrows <- t.nrows + 1

let add_le t n e rhs = add_constr t n e Le rhs
let add_ge t n e rhs = add_constr t n e Ge rhs
let add_eq t n e rhs = add_constr t n e Eq rhs

let set_objective t ?(minimize = true) e =
  let ids, coefs, c = Linexpr.canonical e in
  t.obj_ids <- ids;
  t.obj_coefs <- coefs;
  t.obj_const <- c;
  t.min <- minimize

let minimize t = t.min
let objective_terms t = (t.obj_ids, t.obj_coefs, t.obj_const)

let check t (v : var) =
  if v.id < 0 || v.id >= t.nvars then invalid_arg "Model: not a column of this model"

let set_bounds t v ~lo ~hi =
  check t v;
  t.lo.(v.id) <- lo;
  t.hi.(v.id) <- hi

let set_integer t v b =
  check t v;
  t.integer.(v.id) <- b

let var_name t v =
  check t v;
  name_at t.vnames v.id

let lower t v =
  check t v;
  t.lo.(v.id)

let upper t v =
  check t v;
  t.hi.(v.id)

let is_integer t v =
  check t v;
  t.integer.(v.id)

let lower_bounds t = Array.sub t.lo 0 t.nvars
let upper_bounds t = Array.sub t.hi 0 t.nvars
let num_vars t = t.nvars
let num_constrs t = t.nrows
let vars t = Array.init t.nvars (fun id -> { id })
let constrs t = Array.sub t.row_store 0 t.nrows

let constr_name t i =
  if i < 0 || i >= t.nrows then invalid_arg "Model.constr_name";
  name_at t.rnames i

let integer_vars t =
  let acc = ref [] in
  for id = t.nvars - 1 downto 0 do
    if t.integer.(id) then acc := { id } :: !acc
  done;
  !acc

let validate t =
  let problems = ref [] in
  let bad fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  if t.nvars = 0 then bad "model has no variables";
  for i = 0 to t.nvars - 1 do
    let lo = t.lo.(i) and hi = t.hi.(i) and name = name_at t.vnames i in
    if lo > hi then bad "variable %s has lo %g > hi %g" name lo hi;
    if Float.is_nan lo || Float.is_nan hi then
      bad "variable %s has NaN bound" name;
    if t.integer.(i) && Float.ceil (lo -. 1e-9) > Float.floor (hi +. 1e-9) then
      bad "integer variable %s has empty integral domain [%g, %g]" name lo hi
  done;
  for i = 0 to t.nrows - 1 do
    let r = t.row_store.(i) and cname = name_at t.rnames i in
    if Float.is_nan r.rhs then bad "constraint %s has NaN rhs" cname;
    if Float.abs r.rhs = infinity then
      bad "constraint %s has infinite rhs" cname;
    if Array.length r.ids = 0 then begin
      (* Constant row: either trivially true or witnesses infeasibility. *)
      let ok =
        match r.sense with
        | Le -> 0.0 <= r.rhs +. 1e-9
        | Ge -> 0.0 >= r.rhs -. 1e-9
        | Eq -> Float.abs r.rhs <= 1e-9
      in
      if not ok then bad "constraint %s is constant and violated" cname
    end
  done;
  List.rev !problems

let pp_stats ppf t =
  let nint =
    let n = ref 0 in
    for i = 0 to t.nvars - 1 do
      if t.integer.(i) then incr n
    done;
    !n
  in
  Fmt.pf ppf "%s: %d vars (%d integer), %d constraints" t.mname t.nvars nint
    t.nrows
