(* In-memory span recorder for the traced replay: name, start, end, parent
   span and request id, kept in memory and written out at exit. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** -1 for a root span *)
  start : float;
  stop : float;
}

type t = {
  mutable on : bool;
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
}

let create () = { on = true; spans = []; next = 0; stack = [] }

let record t ~req name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = now () in
    let finish () =
      let stop = now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; req; parent; start; stop } :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Self time of every span: its duration minus the time its children
   cover (children of one span never overlap: the replay is sequential). *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) +. (s.stop -. s.start)))
    t.spans;
  List.map
    (fun s ->
      (s, s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    t.spans

(* Self times (seconds) of every span called [name]. *)
let self_of selfs name =
  Array.of_list (List.filter_map (fun (s, v) -> if s.name = name then Some v else None) selfs)

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
        s.id s.name s.req s.parent s.start s.stop)
    (List.rev t.spans);
  close_out oc
