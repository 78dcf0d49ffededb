(* Classic hash-map + intrusive doubly-linked recency list: O(1) find,
   add, and eviction.  [head] is most recently used, [tail] least. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable evictions : int;
  lock : Mutex.t;
}

let create ~capacity () =
  {
    capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    evictions = 0;
    lock = Mutex.create ();
  }

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = with_lock t (fun () -> Hashtbl.length t.table)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> ());
  t.head <- Some node;
  if t.tail = None then t.tail <- Some node

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None -> None
      | Some node ->
          unlink t node;
          push_front t node;
          Some node.value)

let add t key value =
  if t.capacity > 0 then
    with_lock t (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some node ->
            node.value <- value;
            unlink t node;
            push_front t node
        | None ->
            let node = { key; value; prev = None; next = None } in
            Hashtbl.replace t.table key node;
            push_front t node);
        if Hashtbl.length t.table > t.capacity then
          match t.tail with
          | None -> ()
          | Some lru ->
              unlink t lru;
              Hashtbl.remove t.table lru.key;
              t.evictions <- t.evictions + 1)

let keys t =
  with_lock t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.table [])

let evictions t = with_lock t (fun () -> t.evictions)
