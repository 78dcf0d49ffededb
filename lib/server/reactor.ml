(* Event-driven reactor: one readiness loop driving per-connection fibers
   (OCaml 5 effects).  Connection handlers are written in plain blocking
   style — reads and writes that would block perform a [Wait] effect,
   parking the fiber's continuation until epoll/poll reports the fd ready
   (or a cross-thread [notify] arrives through the self-pipe).  The loop
   runs in the thread that called [run], and a continuation is only ever
   resumed there.

   Wake-ups are advisory: a fiber resumed with [Ready] re-checks its
   condition (retries the read, polls the ticket) and parks again if it
   was spurious.  That makes duplicate and stale wake-ups harmless, which
   in turn keeps the cross-thread protocol tiny: [notify] latches a
   [fired] bit and enqueues the connection; the scheduler resumes it if
   (and only if) it is parked waiting for a signal.

   Every parked continuation is resumed exactly once — [Ready], [Timeout]
   on deadline expiry, or [Stopped] during drain — so [Fun.protect]
   finalizers in fibers always run and fds never leak. *)

type wake = Ready | Stopped | Timeout

exception Aborted
exception Idle_timeout

(* ------------------------------------------------------------ readiness *)

(* Bitmasks per fd: 1 = readable, 2 = writable (see poll_stubs.c). *)
external poll_stub :
  Unix.file_descr array -> int array -> int -> int array = "etransform_poll"

(* Level-triggered epoll, the O(ready) upgrade over the O(registered)
   poll scan.  Interest is registered per connection at adoption and
   re-registered only when it changes at park time (rare: keep-alive
   fibers wait for reads essentially forever), so a steady-state
   request costs one epoll_wait and no epoll_ctl.  [epoll_create]
   raises where the platform has no epoll and the loop falls back to
   the poll scan. *)
external epoll_create : unit -> Unix.file_descr = "etransform_epoll_create"

(* op: 1 = add, 2 = mod, 3 = del; mask bits as for poll. *)
external epoll_ctl :
  Unix.file_descr -> int -> Unix.file_descr -> int -> unit
  = "etransform_epoll_ctl"

(* Returns [fd0; bits0; fd1; bits1; ...]; bit 4 = error/hangup. *)
external epoll_wait_stub :
  Unix.file_descr -> int -> int array = "etransform_epoll_wait"

(* Safe wherever the stubs compile: Unix file_descr is the raw int fd
   (the C side already relies on that via Int_val). *)
let fd_of_int : int -> Unix.file_descr = Obj.magic

(* ---------------------------------------------------------- buffer pool *)

(* Free list of fixed-size byte buffers.  Connections borrow a read
   buffer and a write staging buffer at accept and return them at close,
   so steady-state request handling allocates no buffers at all. *)
module Buf_pool = struct
  type t = {
    size : int;
    m : Mutex.t;
    mutable free : Bytes.t list;
    mutable free_n : int;
    mutable created : int;
  }

  let create ~size () =
    { size; m = Mutex.create (); free = []; free_n = 0; created = 0 }

  let acquire p =
    Mutex.lock p.m;
    match p.free with
    | b :: tl ->
        p.free <- tl;
        p.free_n <- p.free_n - 1;
        Mutex.unlock p.m;
        b
    | [] ->
        p.created <- p.created + 1;
        Mutex.unlock p.m;
        Bytes.create p.size

  let release p b =
    (* Foreign-sized buffers are dropped, not pooled: the pool must only
       ever hand out [size]-byte buffers. *)
    if Bytes.length b = p.size then begin
      Mutex.lock p.m;
      p.free <- b :: p.free;
      p.free_n <- p.free_n + 1;
      Mutex.unlock p.m
    end

  let stats p =
    Mutex.lock p.m;
    let r = (p.free_n, p.created) in
    Mutex.unlock p.m;
    r
end

(* ----------------------------------------------------------------- types *)

type spec = {
  s_read : bool;       (* resume when the socket is readable *)
  s_write : bool;      (* resume when the socket is writable *)
  s_signal : bool;     (* resume on notify *)
  s_deadline : float;  (* absolute; [infinity] = no timeout *)
}

type _ Effect.t += Wait : spec -> wake Effect.t

type conn = {
  fd : Unix.file_descr;
  c_in : Bytes.t;   (* pooled: Http.conn read buffer *)
  c_out : Bytes.t;  (* pooled: Http.out staging buffer *)
  re : t;
  mutable cont : (wake, unit) Effect.Deep.continuation option;
  mutable spec : spec;              (* meaningful while [cont <> None] *)
  mutable in_request : bool;
  mutable on_signal : (unit -> unit) option;
      (* ran from [read]'s wait loop after a signal wake — the /batch
         route uses it to flush completed results while parked on input *)
  mutable fired : bool;   (* notify latch; protected by [re.qm] *)
  mutable queued : bool;  (* already in [re.runq]; protected by [re.qm] *)
  mutable dead : bool;    (* cleanup ran *)
  mutable reg : int;
      (* epoll interest currently registered for this fd: -1 = never
         registered, -2 = deregistered for good (post-hangup) *)
}

and t = {
  max_conns : int;
  idle_timeout : float;  (* seconds; 0 = disabled *)
  drain_timeout : float;
  bufs : Buf_pool.t;
  stop : bool Atomic.t;
  stop_at : float Atomic.t;
  total : int Atomic.t;  (* live conns *)
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* loop thread only *)
  qm : Mutex.t;
  runq : conn Queue.t;          (* notified conns (cross-thread) *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable wake_pending : bool;  (* byte already in the pipe; under [qm] *)
  busy : int Atomic.t;          (* conns inside a request, for metrics *)
  ep : Unix.file_descr option;  (* epoll instance; [None] = poll scan *)
  mutable next_dl : float;
      (* lower bound on the earliest parked deadline (loop thread only);
         parks lower it, the expiry scan recomputes it *)
}

let no_spec =
  { s_read = false; s_write = false; s_signal = false; s_deadline = infinity }

(* ------------------------------------------------------------- creation *)

let create ?(max_conns = 4096) ?(idle_timeout = 30.0) ?(drain_timeout = 10.0)
    ?(buf_size = 16384) () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    max_conns = max 1 max_conns;
    idle_timeout = (if idle_timeout <= 0.0 then 0.0 else idle_timeout);
    drain_timeout = max 0.0 drain_timeout;
    bufs = Buf_pool.create ~size:(max 1024 buf_size) ();
    stop = Atomic.make false;
    stop_at = Atomic.make infinity;
    total = Atomic.make 0;
    conns = Hashtbl.create 64;
    qm = Mutex.create ();
    runq = Queue.create ();
    wake_r;
    wake_w;
    wake_pending = false;
    busy = Atomic.make 0;
    ep = (try Some (epoll_create ()) with _ -> None);
    next_dl = infinity;
  }

let live t = Atomic.get t.total
let busy t = Atomic.get t.busy
let pool_stats t = Buf_pool.stats t.bufs
let idle_timeout t = t.idle_timeout
let max_conns t = t.max_conns
let stopping t = Atomic.get t.stop

(* --------------------------------------------------------- cross-thread *)

let wake re =
  let b = Bytes.make 1 '!' in
  try ignore (Unix.write re.wake_w b 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error (Unix.EBADF, _, _) -> ()

let notify conn =
  let re = conn.re in
  Mutex.lock re.qm;
  conn.fired <- true;
  let need_wake =
    if conn.queued || conn.dead then false
    else begin
      conn.queued <- true;
      Queue.push conn re.runq;
      if re.wake_pending then false
      else begin
        re.wake_pending <- true;
        true
      end
    end
  in
  Mutex.unlock re.qm;
  if need_wake then wake re

let request_stop t =
  if not (Atomic.get t.stop) then begin
    Atomic.set t.stop_at (Lp.Clock.now ());
    Atomic.set t.stop true;
    wake t
  end

(* ------------------------------------------------------------ fiber side *)

let fd conn = conn.fd
let in_buf conn = conn.c_in
let out_buf conn = conn.c_out

let set_in_request conn b =
  if conn.in_request <> b then begin
    conn.in_request <- b;
    if b then Atomic.incr conn.re.busy else Atomic.decr conn.re.busy
  end

let set_on_signal conn f = conn.on_signal <- f

(* Consume the notify latch; [true] if a signal was pending. *)
let take_fired conn =
  let re = conn.re in
  Mutex.lock re.qm;
  let had = conn.fired in
  if had then conn.fired <- false;
  Mutex.unlock re.qm;
  had

let read_deadline conn =
  if conn.re.idle_timeout = 0.0 then infinity
  else Lp.Clock.now () +. conn.re.idle_timeout

let rec read conn buf off len =
  match Unix.read conn.fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read conn buf off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      let want_signal = conn.on_signal <> None in
      let spec =
        { s_read = true; s_write = false; s_signal = want_signal;
          s_deadline = read_deadline conn }
      in
      (* A latched signal beats parking: run the hook now, then retry. *)
      if want_signal && take_fired conn then begin
        (match conn.on_signal with Some f -> f () | None -> ());
        read conn buf off len
      end
      else begin
        match Effect.perform (Wait spec) with
        | Stopped -> raise Aborted
        | Timeout -> raise Idle_timeout
        | Ready ->
            if want_signal && take_fired conn then
              (match conn.on_signal with Some f -> f () | None -> ());
            read conn buf off len
      end

let rec write_some conn buf off len =
  match Unix.write conn.fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_some conn buf off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
      let spec =
        { s_read = false; s_write = true; s_signal = false;
          s_deadline = read_deadline conn }
      in
      match Effect.perform (Wait spec) with
      | Stopped -> raise Aborted
      | Timeout -> raise Idle_timeout  (* write-stalled peer: same eviction *)
      | Ready -> write_some conn buf off len)

let wait_signal conn =
  if not (take_fired conn) then
    match
      Effect.perform
        (Wait { s_read = false; s_write = false; s_signal = true;
                s_deadline = infinity })
    with
    | Stopped -> raise Aborted
    | Ready | Timeout -> ()

let sleep conn d =
  if not (take_fired conn) then
    match
      Effect.perform
        (Wait { s_read = false; s_write = false; s_signal = true;
                s_deadline = Lp.Clock.now () +. max 0.0 d })
    with
    | Stopped -> raise Aborted
    | Ready | Timeout -> ()

(* --------------------------------------------------------------- fibers *)

let cleanup conn =
  let re = conn.re in
  if not conn.dead then begin
    Mutex.lock re.qm;
    conn.dead <- true;
    Mutex.unlock re.qm;
    Hashtbl.remove re.conns conn.fd;
    set_in_request conn false;
    (try Unix.close conn.fd with _ -> ());
    Atomic.decr re.total;
    Buf_pool.release re.bufs conn.c_in;
    Buf_pool.release re.bufs conn.c_out
  end

(* Park bookkeeping: re-register epoll interest when it changed since
   the last park and keep the loop's next-deadline cache a lower bound
   on every parked deadline. *)
let parked conn spec =
  (match conn.re.ep with
  | Some ep when conn.reg >= 0 ->
      let want =
        (if spec.s_read then 1 else 0) lor if spec.s_write then 2 else 0
      in
      if want <> conn.reg then (
        try
          epoll_ctl ep 2 conn.fd want;
          conn.reg <- want
        with _ -> ())
  | _ -> ());
  if spec.s_deadline < conn.re.next_dl then conn.re.next_dl <- spec.s_deadline

let start_fiber conn handler =
  Effect.Deep.match_with
    (fun () ->
      Fun.protect
        ~finally:(fun () -> cleanup conn)
        (fun () ->
          try handler conn with
          | Aborted | Idle_timeout -> ()
          | _ ->
              (* Handlers answer their own protocol errors; anything that
                 still escapes must not take the loop down. *)
              ()))
    ()
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = (fun exn -> raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait spec ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  conn.spec <- spec;
                  conn.cont <- Some k;
                  parked conn spec)
          | _ -> None);
    }

(* Resume a parked fiber; runs it until the next park or completion. *)
let resume conn w =
  match conn.cont with
  | None -> ()
  | Some k ->
      conn.cont <- None;
      conn.spec <- no_spec;
      Effect.Deep.continue k w

let adopt re handler fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
  (try Unix.set_nonblock fd with _ -> ());
  let conn =
    {
      fd;
      c_in = Buf_pool.acquire re.bufs;
      c_out = Buf_pool.acquire re.bufs;
      re;
      cont = None;
      spec = no_spec;
      in_request = false;
      on_signal = None;
      fired = false;
      queued = false;
      dead = false;
      reg = -1;
    }
  in
  Hashtbl.replace re.conns fd conn;
  (match re.ep with
  | Some ep -> (
      (* Register read interest up front: the first park is almost
         always a read wait, so steady state never touches epoll_ctl. *)
      try
        epoll_ctl ep 1 fd 1;
        conn.reg <- 1
      with _ -> conn.reg <- -2)
  | None -> ());
  start_fiber conn handler

(* ------------------------------------------------------------ scheduler *)

let drain_pipe fd =
  let scratch = Bytes.create 64 in
  let rec go () =
    match Unix.read fd scratch 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let default_reject fd = try Unix.close fd with _ -> ()

let accept_burst re listener handler reject =
  let rec go budget =
    if budget > 0 then
      match Unix.accept listener with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          go (budget - 1)
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
      | fd, _addr ->
          (try Unix.set_nonblock fd with _ -> ());
          if Atomic.get re.total >= re.max_conns then begin
            (* Over the connection cap: the reject hook owns the fd (the
               daemon answers 503 before closing). *)
            (try reject fd with _ -> (try Unix.close fd with _ -> ()))
          end
          else begin
            Atomic.incr re.total;
            adopt re handler fd
          end;
          go (budget - 1)
  in
  go 64

let run re ~listener ?(reject = default_reject) handler =
  Unix.set_nonblock listener;
  let listener_open = ref true in
  (match re.ep with
  | Some ep ->
      (try epoll_ctl ep 1 re.wake_r 1 with _ -> ());
      (try epoll_ctl ep 1 listener 1 with _ -> ())
  | None -> ());
  let rec loop () =
    (* 1. Take the notified connections. *)
    Mutex.lock re.qm;
    re.wake_pending <- false;
    let notified = ref [] in
    Queue.iter
      (fun c ->
        c.queued <- false;
        notified := c :: !notified)
      re.runq;
    Queue.clear re.runq;
    Mutex.unlock re.qm;
    (* 2. Resume fibers parked on a signal whose notify arrived.  Conns
       notified while parked on pure I/O keep their latch for the next
       signal-aware wait. *)
    (* The [fired] latch is NOT cleared here: the fiber consumes it via
       [take_fired] (the read path uses it to decide whether to run its
       on_signal hook).  A latch surviving a wake only costs one spurious
       re-check. *)
    List.iter
      (fun c ->
        if (not c.dead) && c.cont <> None && c.spec.s_signal then
          resume c Ready)
      (List.rev !notified);
    (* 3. Drain bookkeeping. *)
    let stopping = Atomic.get re.stop in
    if stopping then begin
      if !listener_open then begin
        listener_open := false;
        try Unix.close listener with _ -> ()
      end;
      let forced =
        Lp.Clock.now () >= Atomic.get re.stop_at +. re.drain_timeout
      in
      (* Idle keep-alive conns die at stop; in-flight requests get until
         the drain deadline, then everything is force-resumed [Stopped]
         so finalizers run and fds close. *)
      let victims =
        Hashtbl.fold
          (fun _ c acc ->
            if c.cont <> None && ((not c.in_request) || forced) then c :: acc
            else acc)
          re.conns []
      in
      List.iter
        (fun c -> if (not c.dead) && c.cont <> None then resume c Stopped)
        victims
    end;
    (* 4. Exit when draining finished. *)
    if not (stopping && Hashtbl.length re.conns = 0) then begin
      let drain_deadline =
        if stopping then Atomic.get re.stop_at +. re.drain_timeout
        else infinity
      in
      let timeout_of next =
        if next = infinity then 500
        else
          let ms = int_of_float (ceil ((next -. Lp.Clock.now ()) *. 1000.)) in
          max 0 (min 500 ms)
      in
      (match re.ep with
      | Some ep ->
          (* 5a. epoll: interest was maintained incrementally at park
             time, so the wait is O(ready) and the common loop builds
             nothing. *)
          let timeout_ms = timeout_of (min re.next_dl drain_deadline) in
          let evs = epoll_wait_stub ep timeout_ms in
          let n = Array.length evs lsr 1 in
          for i = 0 to n - 1 do
            let fd = fd_of_int evs.(2 * i) in
            let bits = evs.((2 * i) + 1) in
            if fd = re.wake_r then drain_pipe re.wake_r
            else if fd = listener && !listener_open then
              accept_burst re listener handler reject
            else
              match Hashtbl.find_opt re.conns fd with
              | Some c when c.cont <> None ->
                  if c.spec.s_read || c.spec.s_write then resume c Ready
                  else if bits land 4 <> 0 then begin
                    (* Error/hangup while parked on a signal-only wait:
                       deregister, or level-triggered epoll would report
                       it every iteration.  After a hangup reads and
                       writes fail without blocking, so this fd never
                       needs epoll again. *)
                    (try epoll_ctl ep 3 c.fd 0 with _ -> ());
                    c.reg <- -2
                  end
              | _ -> ()
          done;
          (* Deadlines: scan only when the cached lower bound passed. *)
          let tnow = Lp.Clock.now () in
          if tnow >= re.next_dl then begin
            let expired =
              Hashtbl.fold
                (fun _ c acc ->
                  if c.cont <> None && c.spec.s_deadline <= tnow then c :: acc
                  else acc)
                re.conns []
            in
            List.iter
              (fun c ->
                if
                  (not c.dead) && c.cont <> None
                  && c.spec.s_deadline <= tnow
                then resume c Timeout)
              expired;
            re.next_dl <-
              Hashtbl.fold
                (fun _ c acc ->
                  if c.cont <> None && c.spec.s_deadline < acc then
                    c.spec.s_deadline
                  else acc)
                re.conns infinity
          end
      | None ->
          (* 5b. poll scan, where there is no epoll: rebuild the interest
             set from the parked specs every iteration. *)
          let fds = ref [ (re.wake_r, 1) ] in
          if !listener_open && not stopping then fds := (listener, 1) :: !fds;
          Hashtbl.iter
            (fun _ c ->
              if c.cont <> None then begin
                let m =
                  (if c.spec.s_read then 1 else 0)
                  lor if c.spec.s_write then 2 else 0
                in
                if m <> 0 then fds := (c.fd, m) :: !fds
              end)
            re.conns;
          let next_deadline =
            Hashtbl.fold
              (fun _ c acc ->
                if c.cont <> None && c.spec.s_deadline < acc then
                  c.spec.s_deadline
                else acc)
              re.conns infinity
          in
          let timeout_ms = timeout_of (min next_deadline drain_deadline) in
          let fda = Array.of_list (List.map fst !fds) in
          let eva = Array.of_list (List.map snd !fds) in
          let revs = poll_stub fda eva timeout_ms in
          (* 6. Process readiness.  Spurious [Ready] wakes are safe
             (fibers re-check), so stale fd entries after a mid-round
             close/adopt cannot corrupt anything. *)
          Array.iteri
            (fun i r ->
              if r <> 0 then begin
                let fd = fda.(i) in
                if fd = re.wake_r then drain_pipe re.wake_r
                else if fd = listener && !listener_open then
                  accept_burst re listener handler reject
                else
                  match Hashtbl.find_opt re.conns fd with
                  | Some c when c.cont <> None -> resume c Ready
                  | _ -> ()
              end)
            revs;
          (* 7. Expire deadlines (fresh scan: resumed fibers re-park
             with new deadlines, which must not fire). *)
          let tnow = Lp.Clock.now () in
          let expired =
            Hashtbl.fold
              (fun _ c acc ->
                if c.cont <> None && c.spec.s_deadline <= tnow then c :: acc
                else acc)
              re.conns []
          in
          List.iter
            (fun c ->
              if (not c.dead) && c.cont <> None && c.spec.s_deadline <= tnow
              then resume c Timeout)
            expired);
      loop ()
    end
  in
  loop ();
  (try Unix.close re.wake_r with _ -> ());
  (try Unix.close re.wake_w with _ -> ());
  match re.ep with
  | Some ep -> ( try Unix.close ep with _ -> ())
  | None -> ()
