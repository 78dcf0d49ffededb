let capacity_shadow_prices ?(builder = Lp_builder.default_options) asis =
  let built = Lp_builder.build ~options:builder asis in
  let input = Lp.Simplex.of_model built.Lp_builder.model in
  let result = Lp.Simplex.solve input in
  let n = Asis.num_targets asis in
  let prices = Array.make n 0.0 in
  if result.Lp.Simplex.status = Lp.Status.Optimal then begin
    (* Capacity rows are named cap_<j>; locate them by name because option
       rows (discount tiers, opening charges) interleave with them. *)
    let model = built.Lp_builder.model in
    for row = 0 to Lp.Model.num_constrs model - 1 do
      let cname = Lp.Model.constr_name model row in
      match String.index_opt cname '_' with
      | Some i when String.sub cname 0 i = "cap" -> (
          match
            int_of_string_opt
              (String.sub cname (i + 1) (String.length cname - i - 1))
          with
          | Some j when j >= 0 && j < n ->
              prices.(j) <- result.Lp.Simplex.duals.(row)
          | _ -> ())
      | _ -> ()
    done
  end;
  Array.mapi (fun j y -> (j, y)) prices

let most_constrained ?builder asis =
  capacity_shadow_prices ?builder asis
  |> Array.to_list
  |> List.filter (fun (_, y) -> Float.abs y > 1e-7)
  |> List.sort (fun (_, a) (_, b) -> compare a b)
