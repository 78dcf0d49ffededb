(* A minimal HTTP/1.1 keep-alive client: one outstanding request per
   connection, fixed-length responses (all the server's /solve, /healthz
   and /metrics answers are). *)

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

(* Appends what one read delivers, compacting (or growing) the buffer
   first when it is full. *)
let fill t =
  if t.len = Bytes.length t.buf then begin
    let keep = t.len - t.pos in
    let buf = if keep = t.len then Bytes.create (2 * t.len) else t.buf in
    Bytes.blit t.buf t.pos buf 0 keep;
    t.buf <- buf;
    t.pos <- 0;
    t.len <- keep
  end;
  let n = Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) in
  if n = 0 then failwith "connection closed by server";
  t.len <- t.len + n

(* A complete response at the head of the buffer, consumed; [None] (and
   nothing consumed) while it is still incomplete. *)
let take_response t =
  let b = t.buf in
  let rec head_end i =
    if i + 3 >= t.len then None
    else if
      Bytes.get b i = '\r' && Bytes.get b (i + 1) = '\n' && Bytes.get b (i + 2) = '\r'
      && Bytes.get b (i + 3) = '\n'
    then Some i
    else head_end (i + 1)
  in
  match head_end t.pos with
  | None -> None
  | Some h ->
      let lines = String.split_on_char '\n' (Bytes.sub_string b t.pos (h - t.pos)) in
      let length =
        List.fold_left
          (fun acc l ->
            match String.index_opt l ':' with
            | Some i when String.lowercase_ascii (String.sub l 0 i) = "content-length" ->
                int_of_string (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            | _ -> acc)
          0 lines
      in
      if t.len < h + 4 + length then None
      else
        let status =
          match String.split_on_char ' ' (List.hd lines) with
          | _ :: code :: _ -> int_of_string code
          | _ -> failwith "bad status line"
        in
        let body = Bytes.sub_string b (h + 4) length in
        t.pos <- h + 4 + length;
        if t.pos = t.len then begin
          t.pos <- 0;
          t.len <- 0
        end;
        Some (status, body)

(* Reads one response; returns (status, body). *)
let rec read_response t =
  match take_response t with
  | Some r -> r
  | None ->
      fill t;
      read_response t

let fd t = t.fd

let send t req = write_all t.fd req 0 (String.length req)

let post_bytes ~path body =
  Printf.sprintf
    "POST %s HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    path (String.length body) body

let get_bytes path = Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path

(* Sends pre-rendered request bytes and waits for the answer. *)
let exchange t req =
  write_all t.fd req 0 (String.length req);
  read_response t

let get port path =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) (fun () -> exchange c (get_bytes path))
