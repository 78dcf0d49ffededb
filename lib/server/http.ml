type meth = GET | POST | HEAD | Other of string

type request = {
  meth : meth;
  path : string;
  query : string;
  version : string;
  headers : (string * string) list;
}

type limits = { max_request_line : int; max_headers : int; max_body : int }

let default_limits =
  { max_request_line = 8192; max_headers = 128; max_body = 8 * 1024 * 1024 }

exception Bad_request of string
exception Payload_too_large

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

(* ------------------------------------------------------ buffered reads *)

type conn = {
  source : Bytes.t -> int -> int -> int;  (* read bytes; 0 = EOF *)
  buf : Bytes.t;
  mutable pos : int;  (* next unread byte in [buf] *)
  mutable len : int;  (* valid bytes in [buf] *)
  limits : limits;
  (* Reused across every request on the connection, so keep-alive
     traffic allocates no fresh buffers per request.  Two scratches
     because body-line accumulation ([read_line]) interleaves with
     protocol-line reads (chunk size lines) on chunked bodies. *)
  line_scratch : Buffer.t;
  body_scratch : Buffer.t;
}

let conn_of_source ?(limits = default_limits) ?buf source =
  let buf = match buf with Some b -> b | None -> Bytes.create 16384 in
  {
    source;
    buf;
    pos = 0;
    len = 0;
    limits;
    line_scratch = Buffer.create 256;
    body_scratch = Buffer.create 1024;
  }

let conn_of_fd ?limits ?buf fd =
  conn_of_source ?limits ?buf (fun buf off len -> Unix.read fd buf off len)

(* Unconsumed bytes already sitting in the connection buffer: the
   reactor's /batch loop uses this to read ahead without suspending. *)
let buffered c = c.pos < c.len

(* Refill returns false at EOF.  A source may legitimately return short
   counts (partial TCP segments, fault-injected reads); only 0 ends the
   stream. *)
let refill c =
  if c.pos < c.len then true
  else begin
    c.pos <- 0;
    c.len <- 0;
    let n = c.source c.buf 0 (Bytes.length c.buf) in
    if n = 0 then false
    else begin
      c.len <- n;
      true
    end
  end

(* The next byte's code, or -1 at EOF: nothing is allocated per byte. *)
let read_byte c =
  if refill c then begin
    let b = Bytes.unsafe_get c.buf c.pos in
    c.pos <- c.pos + 1;
    Char.code b
  end
  else -1

(* The index of the first LF in [buf.[i .. stop - 1]], or [stop]. *)
let rec find_lf buf i stop =
  if i >= stop || Bytes.unsafe_get buf i = '\n' then i
  else find_lf buf (i + 1) stop

(* The line [scratch] ^ [b.[start .. stop - 1]] less one trailing CR.  A
   line that lies whole in [b] is copied once, without [scratch]. *)
let line_of scratch b start stop =
  if Buffer.length scratch = 0 then
    let stop =
      if stop > start && Bytes.get b (stop - 1) = '\r' then stop - 1 else stop
    in
    Bytes.sub_string b start (stop - start)
  else begin
    Buffer.add_subbytes scratch b start (stop - start);
    let n = Buffer.length scratch in
    Buffer.sub scratch 0
      (if n > 0 && Buffer.nth scratch (n - 1) = '\r' then n - 1 else n)
  end

(* One CRLF- (or bare-LF-) terminated protocol line, terminator dropped.
   [None] only when EOF arrives before any byte.  The bytes before the LF
   are taken a buffered run at a time; every one of them counts against
   [max_request_line], so the line that is one byte too long is refused
   at the same byte as when they were taken one at a time. *)
let read_crlf_line c =
  let buf = c.line_scratch in
  Buffer.clear buf;
  let max = c.limits.max_request_line in
  let rec go () =
    if not (refill c) then
      if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    else begin
      let start = c.pos in
      let lf = find_lf c.buf start c.len in
      if Buffer.length buf + (lf - start) > max then
        bad "header line exceeds %d bytes" max;
      if lf < c.len then begin
        c.pos <- lf + 1;
        Some (line_of buf c.buf start lf)
      end
      else begin
        Buffer.add_subbytes buf c.buf start (lf - start);
        c.pos <- lf;
        go ()
      end
    end
  in
  go ()

(* ------------------------------------------------------ request parsing *)

let split_on_first ch s =
  match String.index_opt s ch with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let meth_of_string = function
  | "GET" -> GET
  | "POST" -> POST
  | "HEAD" -> HEAD
  | m -> Other m

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ m; target; version ] ->
      if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
        bad "unsupported version %S" version;
      let path, query = split_on_first '?' target in
      if path = "" || path.[0] <> '/' then bad "bad request target %S" target;
      (meth_of_string m, path, query, version)
  | _ -> bad "malformed request line %S" line

let parse_header line =
  let name, value = split_on_first ':' line in
  if name = "" || String.exists (fun ch -> ch = ' ' || ch = '\t') name then
    bad "malformed header %S" line;
  (String.lowercase_ascii name, String.trim value)

let read_request c =
  (* Tolerate one leading empty line (robustness the RFC recommends). *)
  let rec first_line tries =
    match read_crlf_line c with
    | None -> None
    | Some "" when tries > 0 -> first_line (tries - 1)
    | Some "" -> bad "empty request line"
    | Some line -> Some line
  in
  match first_line 1 with
  | None -> None
  | Some line ->
      let meth, path, query, version = parse_request_line line in
      let rec headers acc n =
        if n > c.limits.max_headers then bad "too many headers";
        match read_crlf_line c with
        | None -> bad "connection closed inside headers"
        | Some "" -> List.rev acc
        | Some line -> headers (parse_header line :: acc) (n + 1)
      in
      Some { meth; path; query; version; headers = headers [] 0 }

let header r name = List.assoc_opt (String.lowercase_ascii name) r.headers

let keep_alive r =
  let conn_tokens =
    match header r "connection" with
    | None -> []
    | Some v ->
        String.split_on_char ',' v
        |> List.map (fun t -> String.lowercase_ascii (String.trim t))
  in
  if List.mem "close" conn_tokens then false
  else if r.version = "HTTP/1.1" then true
  else List.mem "keep-alive" conn_tokens

(* --------------------------------------------------------------- bodies *)

type body_mode =
  | Fixed of int  (* bytes remaining *)
  | Chunk_header  (* chunked: expect a size line next *)
  | Chunk_data of int  (* chunked: bytes remaining in the current chunk *)
  | Done

type body = { bconn : conn; mutable mode : body_mode; mutable total : int }

let body_of_request c r =
  let te =
    Option.map String.lowercase_ascii (header r "transfer-encoding")
  in
  match te with
  | Some "chunked" -> { bconn = c; mode = Chunk_header; total = 0 }
  | Some other -> bad "unsupported transfer-encoding %S" other
  | None -> (
      match header r "content-length" with
      | None -> { bconn = c; mode = Done; total = 0 }
      | Some v -> (
          match int_of_string_opt (String.trim v) with
          | Some n when n >= 0 ->
              if n > c.limits.max_body then raise Payload_too_large;
              { bconn = c; mode = (if n = 0 then Done else Fixed n); total = 0 }
          | _ -> bad "bad content-length %S" v))

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Some (Char.code ch - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code ch - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code ch - Char.code 'A' + 10)
  | _ -> None

let parse_chunk_size line =
  (* Chunk extensions (";...") are allowed and ignored. *)
  let line, _ext = split_on_first ';' line in
  let line = String.trim line in
  if line = "" then bad "empty chunk size";
  let n =
    String.fold_left
      (fun acc ch ->
        match hex_digit ch with
        | Some d when acc <= 0x0FFF_FFFF -> (acc lsl 4) lor d
        | _ -> bad "bad chunk size %S" line)
      0 line
  in
  n

(* The next body byte's code, or -1 at the end of the body. *)
let rec body_byte b =
  match b.mode with
  | Done -> -1
  | Fixed n ->
      let ch = read_byte b.bconn in
      if ch < 0 then bad "connection closed inside body";
      b.mode <- (if n = 1 then Done else Fixed (n - 1));
      account b ch
  | Chunk_header -> (
      match read_crlf_line b.bconn with
      | None -> bad "connection closed inside chunked body"
      | Some line ->
          let n = parse_chunk_size line in
          if n = 0 then begin
            (* Trailer section: lines until the blank terminator. *)
            let rec trailers () =
              match read_crlf_line b.bconn with
              | None -> bad "connection closed inside trailers"
              | Some "" -> ()
              | Some _ -> trailers ()
            in
            trailers ();
            b.mode <- Done;
            -1
          end
          else begin
            b.mode <- Chunk_data n;
            body_byte b
          end)
  | Chunk_data n ->
      let ch = read_byte b.bconn in
      if ch < 0 then bad "connection closed inside chunk";
      (if n = 1 then begin
         (* Consume the CRLF that closes every chunk. *)
         let t = read_byte b.bconn in
         if t = Char.code '\r' then begin
           if read_byte b.bconn <> Char.code '\n' then
             bad "missing LF after chunk"
         end
         else if t <> Char.code '\n' then bad "missing CRLF after chunk";
         b.mode <- Chunk_header
       end
       else b.mode <- Chunk_data (n - 1));
      account b ch

and account b ch =
  b.total <- b.total + 1;
  if b.total > b.bconn.limits.max_body then raise Payload_too_large;
  ch

(* How many body bytes, already in the connection buffer, can be taken
   in one copy.  A chunk's last byte (its CRLF follows) and the byte that
   would pass [max_body] are left to [body_byte], as is the first byte
   after each refill, so every error is raised at the same byte as when
   the body was read one byte at a time. *)
let body_run b =
  let c = b.bconn in
  let avail = c.len - c.pos and room = c.limits.max_body - b.total in
  match b.mode with
  | Fixed n -> min (min n avail) room
  | Chunk_data n -> min (min (n - 1) avail) room
  | Chunk_header | Done -> 0

(* Consume [k] bytes of the current run. *)
let take_run b k =
  b.bconn.pos <- b.bconn.pos + k;
  b.total <- b.total + k;
  match b.mode with
  | Fixed n -> b.mode <- (if n = k then Done else Fixed (n - k))
  | Chunk_data n -> b.mode <- Chunk_data (n - k)
  | Chunk_header | Done -> ()

let read_line b =
  let c = b.bconn in
  let buf = c.body_scratch in
  Buffer.clear buf;
  let rec go () =
    let k = body_run b in
    if k > 0 then begin
      let start = c.pos in
      let lf = find_lf c.buf start (start + k) in
      if lf < start + k then begin
        take_run b (lf - start + 1);
        Some (line_of buf c.buf start lf)
      end
      else begin
        Buffer.add_subbytes buf c.buf start k;
        take_run b k;
        go ()
      end
    end
    else
      let ch = body_byte b in
      if ch < 0 then
        if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
      else if ch = Char.code '\n' then Some (line_of buf c.buf 0 0)
      else begin
        Buffer.add_char buf (Char.unsafe_chr ch);
        go ()
      end
  in
  go ()

let read_all b =
  let c = b.bconn in
  let buf = c.body_scratch in
  Buffer.clear buf;
  let rec go () =
    let k = body_run b in
    if k > 0 then begin
      let start = c.pos in
      take_run b k;
      match b.mode with
      | Done when Buffer.length buf = 0 -> Bytes.sub_string c.buf start k
      | _ ->
          Buffer.add_subbytes buf c.buf start k;
          go ()
    end
    else
      let ch = body_byte b in
      if ch < 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.unsafe_chr ch);
        go ()
      end
  in
  go ()

let drain b =
  let rec go () =
    let k = body_run b in
    if k > 0 then begin
      take_run b k;
      go ()
    end
    else if body_byte b >= 0 then go ()
  in
  go ()

(* -------------------------------------------------------------- writing *)

let status_reason = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | n when n >= 200 && n < 300 -> "OK"
  | n when n >= 400 && n < 500 -> "Client Error"
  | _ -> "Error"

(* An output stream over an injectable byte sink (the write-side twin of
   [conn_of_source]): pieces accumulate in a reusable staging buffer and
   leave in one batched write per response (or per chunk), never through
   intermediate string concatenation.  Strings too big for the staging
   buffer bypass it entirely — the sink reads straight out of the
   string's own bytes (writev-style batching without the copy). *)
type out = {
  sink : Bytes.t -> int -> int -> int;  (* write some bytes; returns count *)
  ob : Bytes.t;                         (* staging buffer, typically pooled *)
  mutable olen : int;                   (* staged bytes *)
}

let out_of_sink ?buf sink =
  let ob = match buf with Some b -> b | None -> Bytes.create 4096 in
  { sink; ob; olen = 0 }

let sink_all sink b off len =
  let rec go off len =
    if len > 0 then begin
      let n = sink b off len in
      go (off + n) (len - n)
    end
  in
  go off len

let out_of_fd fd =
  out_of_sink (fun buf off len -> Unix.write fd buf off len)

let flush_out o =
  if o.olen > 0 then begin
    let n = o.olen in
    (* Reset before writing: if the sink raises (EPIPE) the stale bytes
       must not be replayed by a later best-effort error response. *)
    o.olen <- 0;
    sink_all o.sink o.ob 0 n
  end

let out_string o s =
  let n = String.length s in
  let cap = Bytes.length o.ob in
  if n >= cap / 2 then begin
    (* Large payload: drain the staging buffer, then hand the string's
       bytes to the sink directly — no copy. *)
    flush_out o;
    sink_all o.sink (Bytes.unsafe_of_string s) 0 n
  end
  else begin
    if o.olen + n > cap then flush_out o;
    Bytes.blit_string s 0 o.ob o.olen n;
    o.olen <- o.olen + n
  end

let out_char o ch =
  if o.olen >= Bytes.length o.ob then flush_out o;
  Bytes.set o.ob o.olen ch;
  o.olen <- o.olen + 1

(* Decimal / lowercase-hex integers without going through
   [string_of_int] on the hot path. *)
let out_int o n =
  if n < 10 then out_char o (Char.chr (Char.code '0' + n))
  else begin
    let digits = Bytes.create 20 in
    let rec go i n =
      if n = 0 then i
      else begin
        Bytes.set digits i (Char.chr (Char.code '0' + (n mod 10)));
        go (i - 1) (n / 10)
      end
    in
    let i = go 19 n in
    if o.olen + (19 - i) > Bytes.length o.ob then flush_out o;
    Bytes.blit digits (i + 1) o.ob o.olen (19 - i);
    o.olen <- o.olen + (19 - i)
  end

let out_hex o n =
  let hexdig d = if d < 10 then Char.chr (Char.code '0' + d)
                 else Char.chr (Char.code 'a' + d - 10) in
  if n < 16 then out_char o (hexdig n)
  else begin
    let digits = Bytes.create 16 in
    let rec go i n =
      if n = 0 then i
      else begin
        Bytes.set digits i (hexdig (n land 0xf));
        go (i - 1) (n lsr 4)
      end
    in
    let i = go 15 n in
    if o.olen + (15 - i) > Bytes.length o.ob then flush_out o;
    Bytes.blit digits (i + 1) o.ob o.olen (15 - i);
    o.olen <- o.olen + (15 - i)
  end

let out_head o ~status ~headers ~keep_alive extra =
  out_string o "HTTP/1.1 ";
  out_int o status;
  out_char o ' ';
  out_string o (status_reason status);
  out_string o "\r\n";
  let header (k, v) =
    out_string o k;
    out_string o ": ";
    out_string o v;
    out_string o "\r\n"
  in
  List.iter header headers;
  List.iter header extra;
  out_string o
    (if keep_alive then "Connection: keep-alive\r\n\r\n"
     else "Connection: close\r\n\r\n");
  ()

(* Head, Content-Length and body staged together: a small response is a
   single [write]. *)
let respond o ~status ?(headers = []) ?(keep_alive = true) body =
  out_string o "HTTP/1.1 ";
  out_int o status;
  out_char o ' ';
  out_string o (status_reason status);
  out_string o "\r\n";
  let header (k, v) =
    out_string o k;
    out_string o ": ";
    out_string o v;
    out_string o "\r\n"
  in
  List.iter header headers;
  out_string o "Content-Length: ";
  out_int o (String.length body);
  out_string o "\r\n";
  out_string o
    (if keep_alive then "Connection: keep-alive\r\n\r\n"
     else "Connection: close\r\n\r\n");
  out_string o body;
  flush_out o

type chunked = { co : out; mutable finished : bool }

let start_chunked_out o ~status ?(headers = []) ?(keep_alive = true) () =
  out_head o ~status ~headers ~keep_alive
    [ ("Transfer-Encoding", "chunked") ];
  (* The head goes out before the first chunk is produced, so clients can
     act on the status while results are still being computed. *)
  flush_out o;
  { co = o; finished = false }

let write_chunk c s =
  if (not c.finished) && String.length s > 0 then begin
    out_hex c.co (String.length s);
    out_string c.co "\r\n";
    out_string c.co s;
    out_string c.co "\r\n";
    (* One flush per chunk: size line + payload + CRLF leave batched, and
       streaming consumers see each result line promptly. *)
    flush_out c.co
  end

let finish_chunked c =
  if not c.finished then begin
    c.finished <- true;
    out_string c.co "0\r\n\r\n";
    flush_out c.co
  end

(* fd-flavoured wrappers, kept for callers without a long-lived [out]
   (tests, one-shot error responses). *)
let write_response fd ~status ?headers ?keep_alive body =
  respond (out_of_fd fd) ~status ?headers ?keep_alive body

let start_chunked fd ~status ?headers ?keep_alive () =
  start_chunked_out (out_of_fd fd) ~status ?headers ?keep_alive ()
