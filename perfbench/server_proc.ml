(* The server under test as a child process: spawn, wait until healthy,
   scrape, stop. *)

type t = { pid : int; port : int; log : string }

(* Reads to end of file (procfs files report no length). *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* "etransform_server: listening on 127.0.0.1:PORT (...)" *)
let port_of_log text =
  let key = "listening on " in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length text then None
    else if String.sub text i kl = key then
      match String.index_from_opt text (i + kl) ':' with
      | None -> None
      | Some c ->
          let j = ref (c + 1) in
          while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
            incr j
          done;
          int_of_string_opt (String.sub text (c + 1) (!j - c - 1))
    else find (i + 1)
  in
  find 0

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  while alive t.pid && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if alive t.pid then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ()
  end

(* Spawns the server and returns once [GET /healthz] answers 200. *)
let start ~exe ~log ~args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list (exe :: "--port" :: "0" :: args) in
  let pid = Unix.create_process exe argv null null err in
  Unix.close null;
  Unix.close err;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let fail msg =
    let t = { pid; port = 0; log } in
    stop t;
    failwith (Printf.sprintf "server: %s (log %s)" msg log)
  in
  let rec wait_port () =
    match port_of_log (read_file log) with
    | Some port -> port
    | None ->
        if not (alive pid) then fail "exited during start-up"
        else if Unix.gettimeofday () > deadline then fail "never listened"
        else (
          Unix.sleepf 0.002;
          wait_port ())
  in
  let port = wait_port () in
  let t = { pid; port; log } in
  let rec healthy () =
    match Client.get port "/healthz" with
    | 200, _ -> ()
    | _ | (exception Unix.Unix_error _) | (exception Failure _) ->
        if Unix.gettimeofday () > deadline then fail "never healthy"
        else (
          Unix.sleepf 0.002;
          healthy ())
  in
  healthy ();
  t

(* Peak resident set of the server process, in MiB. *)
let peak_rss_mb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
      | _ -> acc)
    nan
    (String.split_on_char '\n' status)

(* Prometheus text -> (series, value), series including its labels. *)
let scrape t =
  match Client.get t.port "/metrics" with
  | 200, text ->
      List.filter_map
        (fun line ->
          if line = "" || line.[0] = '#' then None
          else
            match String.rindex_opt line ' ' with
            | None -> None
            | Some i ->
                Option.map
                  (fun v -> (String.sub line 0 i, v))
                  (float_of_string_opt
                     (String.sub line (i + 1) (String.length line - i - 1))))
        (String.split_on_char '\n' text)
  | status, _ -> failwith (Printf.sprintf "/metrics answered %d" status)

(* Sum over every series whose name starts with [prefix] and whose label
   set contains every [labels] pair. *)
let sum scrape ?(labels = []) prefix =
  List.fold_left
    (fun acc (s, v) ->
      let pl = String.length prefix in
      if
        String.length s >= pl
        && String.sub s 0 pl = prefix
        && (String.length s = pl || s.[pl] = '{')
        && List.for_all
             (fun (k, x) ->
               let needle = Printf.sprintf "%s=\"%s\"" k x in
               let nl = String.length needle in
               let rec has i =
                 i + nl <= String.length s
                 && (String.sub s i nl = needle || has (i + 1))
               in
               has 0)
             labels
      then acc +. v
      else acc)
    0.0 scrape

(* A clock of the CPU time (s) that every thread of [pids] has run, summed
   from the schedstat files of their threads (nanosecond resolution).
   With paravirtual steal accounting the time a hypervisor took the vCPU
   away is not in it.  The thread lists are read once: call it after the
   processes have started all their threads. *)
let cpu_clock pids =
  let fds =
    List.concat_map
      (fun pid ->
        let dir = Printf.sprintf "/proc/%d/task" pid in
        Array.to_list
          (Array.map
             (fun tid -> Unix.openfile (Printf.sprintf "%s/%s/schedstat" dir tid) [ Unix.O_RDONLY ] 0)
             (Sys.readdir dir)))
      pids
  in
  let buf = Bytes.create 128 in
  let read fd =
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    let rec num i acc =
      if i < n && Bytes.get buf i >= '0' && Bytes.get buf i <= '9' then
        num (i + 1) ((acc * 10) + Char.code (Bytes.get buf i) - 48)
      else acc
    in
    num 0 0
  in
  let clock () = float (List.fold_left (fun acc fd -> acc + read fd) 0 fds) *. 1e-9 in
  let close () = List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds in
  (clock, close)
