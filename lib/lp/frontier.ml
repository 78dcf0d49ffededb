(* Min-max interval heap (Atkinson et al., 1986) over a growable array.

   Even tree levels (root = level 0) are min levels, odd levels are max
   levels: every node on a min level is <= all of its descendants, every
   node on a max level is >= all of its descendants.  The global minimum
   therefore sits at index 0 and the global maximum at index 1 or 2,
   giving O(1) peeks and O(log n) pops.  Only the minimum end is popped;
   the max levels stay because they fix the order in which equal keys
   come out, and so which node the search visits next. *)

type 'a t = { mutable data : (float * 'a) array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0
let key h i = fst h.data.(i)

let swap h i j =
  let t = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- t

(* Index [i] sits on a min level iff the bit-length of [i+1] is odd
   (the root, i = 0, has bit-length 1). *)
let on_min_level i =
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  bits (i + 1) 0 land 1 = 1

let rec bubble_up_min h i =
  if i >= 3 then begin
    let g = ((((i - 1) / 2) - 1) / 2) in
    if key h i < key h g then begin
      swap h i g;
      bubble_up_min h g
    end
  end

let rec bubble_up_max h i =
  if i >= 3 then begin
    let g = ((((i - 1) / 2) - 1) / 2) in
    if key h i > key h g then begin
      swap h i g;
      bubble_up_max h g
    end
  end

let bubble_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if on_min_level i then
      if key h i > key h p then begin
        swap h i p;
        bubble_up_max h p
      end
      else bubble_up_min h i
    else if key h i < key h p then begin
      swap h i p;
      bubble_up_min h p
    end
    else bubble_up_max h i
  end

let push h ~key:k v =
  let cap = Array.length h.data in
  if h.size = cap then
    if cap = 0 then h.data <- Array.make 16 (k, v)
    else
      (* Doubled by a copy: [Array.make] from a young entry would force
         a minor collection once the array passes 256 words.  Slots past
         [size] are never read. *)
      h.data <- Array.append h.data h.data;
  h.data.(h.size) <- (k, v);
  h.size <- h.size + 1;
  bubble_up h (h.size - 1)

(* Index of the extreme element among the children and grandchildren of
   [i] under comparison [better] (strictly-better-than), or [-1] when
   [i] is a leaf. *)
let extreme_descendant h better i =
  let n = h.size in
  let c1 = (2 * i) + 1 in
  if c1 >= n then (-1, false)
  else begin
    let best = ref c1 and grand = ref false in
    let consider j g =
      if j < n && better (key h j) (key h !best) then begin
        best := j;
        grand := g
      end
    in
    consider ((2 * i) + 2) false;
    let gc = (4 * i) + 3 in
    consider gc true;
    consider (gc + 1) true;
    consider (gc + 2) true;
    consider (gc + 3) true;
    (!best, !grand)
  end

let rec trickle_down h better i =
  match extreme_descendant h better i with
  | -1, _ -> ()
  | m, grand ->
      if grand then begin
        if better (key h m) (key h i) then begin
          swap h m i;
          let p = (m - 1) / 2 in
          if better (key h p) (key h m) then swap h m p;
          trickle_down h better m
        end
      end
      else if better (key h m) (key h i) then swap h m i

let lt a b = a < b

let pop_min h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      trickle_down h lt 0
    end;
    Some top
  end

let min_key h = if h.size = 0 then None else Some (key h 0)
