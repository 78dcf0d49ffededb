(** Writer for the (free-form) MPS format, as a second interchange format
    next to {!Lp_format}. *)

let row_name m i =
  let s = Lp_format.sanitize_name (Model.constr_name m i) in
  if s = "" then Printf.sprintf "c%d" i else s

let var_name m (v : Model.var) =
  let s = Lp_format.sanitize_name (Model.var_name m v) in
  if s = "" then Printf.sprintf "x%d" v.Model.id else s

let write_model ppf m =
  let vs = Model.vars m in
  let cs = Model.constrs m in
  Format.fprintf ppf "NAME %s\n" (Lp_format.sanitize_name (Model.name m));
  if not (Model.minimize m) then Format.fprintf ppf "OBJSENSE\n MAX\n";
  Format.fprintf ppf "ROWS\n N obj\n";
  Array.iteri
    (fun i c ->
      let k =
        match c.Model.sense with Model.Le -> 'L' | Model.Ge -> 'G' | Model.Eq -> 'E'
      in
      Format.fprintf ppf " %c %s\n" k (row_name m i))
    cs;
  (* Column-major coefficients. *)
  let cols = Array.make (Array.length vs) [] in
  Array.iteri
    (fun i (c : Model.row) ->
      let row = row_name m i in
      Array.iteri
        (fun k id -> cols.(id) <- (row, c.coefs.(k)) :: cols.(id))
        c.ids)
    cs;
  let obj_ids, obj_coefs, obj_const = Model.objective_terms m in
  Array.iteri
    (fun k id -> cols.(id) <- ("obj", obj_coefs.(k)) :: cols.(id))
    obj_ids;
  Format.fprintf ppf "COLUMNS\n";
  let in_int = ref false in
  Array.iter
    (fun (v : Model.var) ->
      let integer = Model.is_integer m v in
      if integer && not !in_int then begin
        Format.fprintf ppf " MARKER M%d 'MARKER' 'INTORG'\n" v.Model.id;
        in_int := true
      end
      else if (not integer) && !in_int then begin
        Format.fprintf ppf " MARKER M%d 'MARKER' 'INTEND'\n" v.Model.id;
        in_int := false
      end;
      (* A column in no row and not in the objective still gets an entry,
         so BOUNDS never names an undeclared column. *)
      match cols.(v.Model.id) with
      | [] -> Format.fprintf ppf " %s obj 0\n" (var_name m v)
      | entries ->
          List.iter
            (fun (row, coeff) ->
              Format.fprintf ppf " %s %s %.12g\n" (var_name m v) row coeff)
            (List.rev entries))
    vs;
  if !in_int then Format.fprintf ppf " MARKER MEND 'MARKER' 'INTEND'\n";
  Format.fprintf ppf "RHS\n";
  (* The objective constant is written negated on the objective row, the
     CPLEX/Gurobi convention. *)
  if obj_const <> 0.0 then
    Format.fprintf ppf " rhs obj %.12g\n" (-.obj_const);
  Array.iteri
    (fun i c ->
      if c.Model.rhs <> 0.0 then
        Format.fprintf ppf " rhs %s %.12g\n" (row_name m i) c.Model.rhs)
    cs;
  Format.fprintf ppf "BOUNDS\n";
  Array.iter
    (fun v ->
      let name = var_name m v in
      let lo = Model.lower m v and hi = Model.upper m v in
      if lo = 0.0 && hi = infinity then ()
      else if lo = neg_infinity && hi = infinity then
        Format.fprintf ppf " FR BND %s\n" name
      else if lo = hi then Format.fprintf ppf " FX BND %s %.12g\n" name lo
      else begin
        if lo <> 0.0 then
          if lo = neg_infinity then Format.fprintf ppf " MI BND %s\n" name
          else Format.fprintf ppf " LO BND %s %.12g\n" name lo;
        if hi <> infinity then Format.fprintf ppf " UP BND %s %.12g\n" name hi
      end)
    vs;
  Format.fprintf ppf "ENDATA\n"

let model_to_string m =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  write_model ppf m;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let write_model_file path m =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  (try
     write_model ppf m;
     Format.pp_print_flush ppf ()
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc
