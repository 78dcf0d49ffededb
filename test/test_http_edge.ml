(* Chunked-encoding corner cases over the injectable byte source — the
   same seam the fuzz IO oracles replay through, driven here with
   hand-picked edge inputs: the bare zero-length-chunk terminator,
   trailers after the last chunk, chunk-size lines carrying extensions,
   and oversized / malformed chunk headers.  Then the edges of reading
   in runs: the line-length limit, bodies across the connection buffer's
   end, bodies cut short and the body-size limit, each read from a source
   that serves one byte per read and from one that fills the buffer. *)

(* A source serving [s] at most [step] bytes per read. *)
let conn_of_string ?limits ?(step = max_int) s =
  let pos = ref 0 in
  Server.Http.conn_of_source ?limits (fun buf off len ->
      let n = min (min len step) (String.length s - !pos) in
      if n <= 0 then 0
      else begin
        Bytes.blit_string s !pos buf off n;
        pos := !pos + n;
        n
      end)

let steps = [ ("1-byte reads", 1); ("whole-buffer reads", max_int) ]

let chunked_request body_text =
  "POST /batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" ^ body_text

let read_body ?limits body_text =
  let conn = conn_of_string ?limits (chunked_request body_text) in
  match Server.Http.read_request conn with
  | None -> Alcotest.fail "no request parsed"
  | Some req ->
      let body = Server.Http.body_of_request conn req in
      (conn, Server.Http.read_all body)

let test_zero_length_terminator () =
  (* A body that is ONLY the terminating zero chunk: empty, and the
     connection is immediately reusable. *)
  let conn, data = read_body "0\r\n\r\n" in
  Alcotest.(check string) "empty body" "" data;
  Alcotest.(check bool) "clean eof after body" true
    (Server.Http.read_request conn = None)

let test_trailers_after_last_chunk () =
  let conn, data =
    read_body "4\r\nabcd\r\n0\r\nX-Checksum: 99\r\nX-Other: t\r\n\r\n"
  in
  Alcotest.(check string) "body" "abcd" data;
  (* Trailers are consumed as part of the body; a pipelined request
     after them still parses. *)
  Alcotest.(check bool) "eof after trailers" true
    (Server.Http.read_request conn = None)

let test_trailers_then_next_request () =
  let text =
    chunked_request "2\r\nhi\r\n0\r\nX-T: 1\r\n\r\n"
    ^ "GET /healthz HTTP/1.1\r\n\r\n"
  in
  let conn = conn_of_string text in
  (match Server.Http.read_request conn with
  | Some req ->
      let body = Server.Http.body_of_request conn req in
      Alcotest.(check string) "first body" "hi" (Server.Http.read_all body)
  | None -> Alcotest.fail "first request missing");
  match Server.Http.read_request conn with
  | Some req ->
      Alcotest.(check string) "second path survives trailers" "/healthz"
        req.Server.Http.path
  | None -> Alcotest.fail "keep-alive lost after trailers"

let test_chunk_size_extensions () =
  (* Extensions after the size are ignored, with or without a value, in
     any chunk including the last. *)
  let _, data =
    read_body "3;name=value\r\nabc\r\n2;flag\r\nde\r\n0;last=1\r\n\r\n"
  in
  Alcotest.(check string) "extensions ignored" "abcde" data

let test_uppercase_hex_size () =
  let _, data = read_body ("A\r\n0123456789\r\n0\r\n\r\n") in
  Alcotest.(check string) "hex size, uppercase" "0123456789" data

let test_oversized_chunk_header () =
  (* A chunk-size line longer than max_request_line must be a 400, not
     an unbounded buffer. *)
  let limits =
    { Server.Http.default_limits with Server.Http.max_request_line = 64 }
  in
  let huge = "1;" ^ String.make 500 'x' ^ "\r\nA\r\n0\r\n\r\n" in
  match read_body ~limits huge with
  | exception Server.Http.Bad_request _ -> ()
  | _ -> Alcotest.fail "oversized chunk header accepted"

let test_huge_chunk_size_value () =
  (* A size over the parser's hex cap is rejected rather than wrapped
     into a small (or negative) count. *)
  match read_body "FFFFFFFFFFFFFFFF\r\nzz\r\n0\r\n\r\n" with
  | exception Server.Http.Bad_request _ -> ()
  | _ -> Alcotest.fail "64-bit chunk size accepted"

let test_malformed_chunk_sizes () =
  List.iter
    (fun body ->
      match read_body body with
      | exception Server.Http.Bad_request _ -> ()
      | _ -> Alcotest.failf "malformed chunk size %S accepted" body)
    [ "\r\nab\r\n0\r\n\r\n";       (* empty size line *)
      "g1\r\nab\r\n0\r\n\r\n";     (* non-hex digit *)
      ";ext\r\nab\r\n0\r\n\r\n" ]  (* extension without a size *)

let test_eof_inside_chunk () =
  (* Torn write: the peer dies mid-chunk.  Must be a 400-class error,
     not a hang or a partial success. *)
  match read_body "5\r\nab" with
  | exception Server.Http.Bad_request _ -> ()
  | _, data -> Alcotest.failf "truncated chunk read as %S" data

(* What reading did: the value, or the error it raised. *)
let outcome f =
  match f () with
  | v -> "ok " ^ v
  | exception Server.Http.Bad_request m -> "400 " ^ m
  | exception Server.Http.Payload_too_large -> "413"

let max_line = Server.Http.default_limits.Server.Http.max_request_line

(* Header lines of [n] bytes in all ("X-F<i>: ccc...\r\n"), none longer
   than 4000. *)
let filler n =
  let rec go i n acc =
    if n = 0 then String.concat "" (List.rev acc)
    else
      let len = if n > 4000 then 3000 else n in
      let name = Printf.sprintf "X-F%d: " i in
      let line = name ^ String.make (len - String.length name - 2) 'c' in
      go (i + 1) (n - len) ((line ^ "\r\n") :: acc)
  in
  go 0 n []

(* A header line of [len] bytes before its LF, CR included: that is the
   count [max_request_line] bounds, at the start of the head or across
   the end of the first 16 KiB read. *)
let test_header_line_at_limit () =
  let request_line = "GET /x HTTP/1.1\r\n" in
  List.iter
    (fun (what, step) ->
      List.iter
        (fun before ->
          let head len =
            request_line ^ filler before ^ "X-Long: "
            ^ String.make (len - String.length "X-Long: " - 1) 'v'
            ^ "\r\n\r\n"
          in
          let read len =
            outcome (fun () ->
                let conn = conn_of_string ~step (head len) in
                match Server.Http.read_request conn with
                | None -> "none"
                | Some r ->
                    let v = Server.Http.header r "x-long" in
                    string_of_int (String.length (Option.value ~default:"" v)))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s, %d bytes before: limit parses" what before)
            (Printf.sprintf "ok %d" (max_line - 9))
            (read max_line);
          Alcotest.(check string)
            (Printf.sprintf "%s, %d bytes before: one more is 400" what before)
            (Printf.sprintf "400 header line exceeds %d bytes" max_line)
            (read (max_line + 1)))
        [ 0; 16384 - String.length request_line - 100 ];
      (* The request line is bounded the same way. *)
      let line len =
        let pad = len - String.length "GET / HTTP/1.1\r" in
        "GET /" ^ String.make pad 'p' ^ " HTTP/1.1\r\n\r\n"
      in
      let read len =
        outcome (fun () ->
            match Server.Http.read_request (conn_of_string ~step (line len)) with
            | None -> "none"
            | Some r -> string_of_int (String.length r.Server.Http.path))
      in
      Alcotest.(check string) (what ^ ": request line at the limit")
        (Printf.sprintf "ok %d" (max_line - 14)) (read max_line);
      Alcotest.(check string) (what ^ ": request line one byte over")
        (Printf.sprintf "400 header line exceeds %d bytes" max_line)
        (read (max_line + 1)))
    steps

let ndjson_body n =
  String.concat ""
    (List.init n (fun i ->
         Printf.sprintf "{\"line\":%d,\"pad\":\"%s\"}\n" i
           (String.make (i mod 97) 'z')))

(* Bodies longer than the 16 KiB connection buffer, so one read ends
   inside them: a Content-Length body and a chunked one whose chunk
   straddles the buffer's end, read whole and line by line. *)
let test_body_across_buffer_end () =
  let body = ndjson_body 400 in
  let n = String.length body in
  Alcotest.(check bool) "body spans two buffers" true (n > 20000);
  let fixed =
    Printf.sprintf "POST /batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" n body
  in
  let chunked =
    let chunk s = Printf.sprintf "%x\r\n%s\r\n" (String.length s) s in
    "POST /batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    ^ chunk (String.sub body 0 16000)
    ^ chunk (String.sub body 16000 (n - 16000))
    ^ "0\r\n\r\n"
  in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' body) in
  List.iter
    (fun (what, step) ->
      List.iter
        (fun (enc, text) ->
          let open_body () =
            let text = text ^ "GET /next HTTP/1.1\r\n\r\n" in
            let conn = conn_of_string ~step text in
            match Server.Http.read_request conn with
            | None -> Alcotest.fail "no request"
            | Some r -> (conn, Server.Http.body_of_request conn r)
          in
          let next conn =
            Option.map
              (fun r -> r.Server.Http.path)
              (Server.Http.read_request conn)
          in
          let name = Printf.sprintf "%s, %s: %s" what enc in
          let conn, b = open_body () in
          Alcotest.(check string) (name "read_all") body (Server.Http.read_all b);
          Alcotest.(check (option string)) (name "next request") (Some "/next")
            (next conn);
          let conn, b = open_body () in
          let rec all acc =
            match Server.Http.read_line b with
            | None -> List.rev acc
            | Some l -> all (l :: acc)
          in
          Alcotest.(check (list string)) (name "read_line") lines (all []);
          Alcotest.(check (option string)) (name "next request after lines")
            (Some "/next") (next conn))
        [ ("content-length", fixed); ("chunked", chunked) ])
    steps

(* A body that ends before its Content-Length is still a 400 naming it,
   whichever reader meets the end. *)
let test_body_ends_early () =
  let text =
    "POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
    ^ String.make 40 'b' ^ "\nbbb"
  in
  List.iter
    (fun (what, step) ->
      List.iter
        (fun (reader, read) ->
          let got =
            outcome (fun () ->
                let conn = conn_of_string ~step text in
                match Server.Http.read_request conn with
                | None -> "none"
                | Some r -> read (Server.Http.body_of_request conn r))
          in
          Alcotest.(check string) (Printf.sprintf "%s, %s" what reader)
            "400 connection closed inside body" got)
        [
          ("read_all", Server.Http.read_all);
          ( "read_line",
            fun b ->
              ignore (Server.Http.read_line b);
              Option.value ~default:"" (Server.Http.read_line b) );
          ( "drain",
            fun b ->
              Server.Http.drain b;
              "drained" );
        ])
    steps

(* The body-size limit and the chunk framing errors are raised at the
   same byte whether the source serves one byte per read or all of
   them: the byte after [max_body] is a 413, unless it ends a chunk whose
   CRLF is missing, which the framing reports first. *)
let test_body_limit_same_byte () =
  let limits = { Server.Http.default_limits with Server.Http.max_body = 10 } in
  let read text =
    List.map
      (fun (_, step) ->
        outcome (fun () ->
            let conn = conn_of_string ~limits ~step text in
            match Server.Http.read_request conn with
            | None -> "none"
            | Some r ->
                Server.Http.read_all (Server.Http.body_of_request conn r)))
      steps
  in
  let chunked body =
    "POST /batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" ^ body
  in
  List.iter
    (fun (body, want) ->
      Alcotest.(check (list string)) body [ want; want ] (read (chunked body)))
    [
      ("a\r\n0123456789\r\n0\r\n\r\n", "ok 0123456789");
      ("5\r\nabcde\r\n6\r\nfghijk\r\n0\r\n\r\n", "413");
      ("5\r\nabcde\r\n6\r\nfghijkXX0\r\n\r\n", "400 missing CRLF after chunk");
      ("5\r\nabcde\r\n9\r\nfghijklmn\r\n0\r\n\r\n", "413");
      ("5\r\nabcde\r\n5\r\nfghij\rX0\r\n\r\n", "400 missing LF after chunk");
      ("5\r\nabcde\r\n5\r\nfgh", "400 connection closed inside chunk");
    ];
  Alcotest.(check (list string))
    "content-length over the limit" [ "413"; "413" ]
    (read "POST /solve HTTP/1.1\r\nContent-Length: 11\r\n\r\n01234567890")

let suite =
  [
    Alcotest.test_case "zero-length chunk terminator" `Quick
      test_zero_length_terminator;
    Alcotest.test_case "trailers after last chunk" `Quick
      test_trailers_after_last_chunk;
    Alcotest.test_case "trailers then next request" `Quick
      test_trailers_then_next_request;
    Alcotest.test_case "chunk-size extensions" `Quick
      test_chunk_size_extensions;
    Alcotest.test_case "uppercase hex size" `Quick test_uppercase_hex_size;
    Alcotest.test_case "oversized chunk header is 400" `Quick
      test_oversized_chunk_header;
    Alcotest.test_case "huge chunk size value is 400" `Quick
      test_huge_chunk_size_value;
    Alcotest.test_case "malformed chunk sizes are 400" `Quick
      test_malformed_chunk_sizes;
    Alcotest.test_case "eof inside chunk is 400" `Quick test_eof_inside_chunk;
    Alcotest.test_case "header line at the limit" `Quick
      test_header_line_at_limit;
    Alcotest.test_case "body across the buffer's end" `Quick
      test_body_across_buffer_end;
    Alcotest.test_case "body that ends early is 400" `Quick
      test_body_ends_early;
    Alcotest.test_case "body limit at the same byte" `Quick
      test_body_limit_same_byte;
  ]
