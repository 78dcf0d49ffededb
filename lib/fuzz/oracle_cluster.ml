(* Model-based fuzz of the on-disk plan store.

   [store_roundtrip_sound]: a random program of puts, gets, flushes and
   restarts runs against both [Cluster.Store] and a plain in-memory map.
   After every get the two must agree; a restart (close + reopen from
   the same directory) must preserve exactly the model's contents —
   flushed or not, since the segment itself is the source of truth and
   the index snapshot only an accelerator.  Capped puts go to neither
   (the store refuses them at its boundary, mirroring the service-layer
   poisoning rule), so a capped entry resurfacing after any sequence of
   restarts is a failure. *)

open Check

let failf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* A small key space so puts collide (exercising supersede + dead-byte
   accounting) and gets hit. *)
let key_of i = Printf.sprintf "fp%02d" (i mod 12)

type op =
  | Put of int * string * bool  (* key, value, capped *)
  | Get of int
  | Flush
  | Reopen

let pp_op ppf = function
  | Put (k, v, capped) ->
      Format.fprintf ppf "put %s %S%s" (key_of k) v
        (if capped then " (capped)" else "")
  | Get k -> Format.fprintf ppf "get %s" (key_of k)
  | Flush -> Format.fprintf ppf "flush"
  | Reopen -> Format.fprintf ppf "reopen"

let pp_case ppf ops =
  Format.fprintf ppf "%d ops:" (List.length ops);
  List.iter (fun op -> Format.fprintf ppf "@ %a;" pp_op op) ops

let gen_value : string Gen.t =
  Gen.string_of ~max:48 (Gen.char_range '\x00' '\xff')

let gen_op : op Gen.t =
  Gen.frequency
    [
      ( 5,
        fun rng ->
          Put
            ( Gen.int_range 0 11 rng,
              gen_value rng,
              Gen.int_range 0 9 rng = 0 ) );
      (4, Gen.map (fun k -> Get k) (Gen.int_range 0 11));
      (1, Gen.return Flush);
      (1, Gen.return Reopen);
    ]

let gen_case : op list Gen.t = Gen.list ~max:48 gen_op

let arb_case = Check.arb ~pp:pp_case ~shrink:Shrink.list gen_case

let temp_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "etransform_fuzz_store_%d_%x" (Unix.getpid ())
         (Hashtbl.hash (Lp.Clock.now ())))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let store_roundtrip_sound ops =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Unix.Unix_error _ -> ())
    (fun () ->
      let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
      let store = ref (Cluster.Store.open_ ~dir) in
      let check_key i =
        let key = key_of i in
        let want = Hashtbl.find_opt model key in
        let got = Cluster.Store.find !store key in
        if got <> want then
          failf "get %s: store %s, model %s" key
            (match got with Some v -> Printf.sprintf "%S" v | None -> "miss")
            (match want with Some v -> Printf.sprintf "%S" v | None -> "miss")
        else Ok ()
      in
      let rec run = function
        | [] -> Ok ()
        | op :: rest -> (
            match op with
            | Put (k, v, capped) ->
                Cluster.Store.add !store ~capped (key_of k) v;
                if not capped then Hashtbl.replace model (key_of k) v;
                run rest
            | Get k -> (
                match check_key k with Ok () -> run rest | e -> e)
            | Flush ->
                Cluster.Store.flush !store;
                run rest
            | Reopen -> (
                Cluster.Store.close !store;
                store := Cluster.Store.open_ ~dir;
                (* A restart must preserve exactly the model: every key
                   readable, nothing (capped puts!) resurrected. *)
                let rec all i =
                  if i >= 12 then Ok ()
                  else match check_key i with Ok () -> all (i + 1) | e -> e
                in
                match all 0 with
                | Ok () ->
                    if
                      Cluster.Store.length !store <> Hashtbl.length model
                    then
                      failf "after reopen: %d entries on disk, model has %d"
                        (Cluster.Store.length !store)
                        (Hashtbl.length model)
                    else run rest
                | e -> e))
      in
      let verdict = run ops in
      Cluster.Store.close !store;
      verdict)

let props =
  [
    prop ~count:60 ~smoke_count:10 "store_roundtrip_sound" arb_case
      store_roundtrip_sound;
  ]
