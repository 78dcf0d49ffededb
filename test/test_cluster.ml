(* The tiered plan-cache cluster layer: Bloom digests, the consistent
   hash ring, the binary outcome codec, the crash-safe on-disk store
   (including its corruption tolerance and the capped-solve refusal),
   and the pool-level disk tier surviving a restart. *)

open Etransform

let contains_substring ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "etransform_cluster_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
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

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let seg dir = Filename.concat dir "plans.seg"
let idx dir = Filename.concat dir "plans.idx"

(* ----------------------------------------------------------------- bloom *)

let test_bloom () =
  let keys =
    List.init 40 (fun i -> Stdlib.Digest.to_hex (Stdlib.Digest.string (string_of_int i)))
  in
  let b = Cluster.Bloom.of_keys keys in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("member " ^ k) true (Cluster.Bloom.mem b k))
    keys;
  (* No false negatives is the contract; false positives are possible
     but at 40 keys in 16k bits must be rare — over 200 fresh keys,
     demand almost all read absent. *)
  let absent =
    List.init 200 (fun i ->
        Stdlib.Digest.to_hex (Stdlib.Digest.string (Printf.sprintf "no-%d" i)))
  in
  let fp = List.length (List.filter (Cluster.Bloom.mem b) absent) in
  Alcotest.(check bool)
    (Printf.sprintf "false positives rare (%d/200)" fp)
    true (fp < 5);
  (* Wire roundtrip preserves membership verdicts exactly. *)
  match Cluster.Bloom.of_hex (Cluster.Bloom.to_hex b) with
  | None -> Alcotest.fail "hex roundtrip failed to parse"
  | Some b' ->
      List.iter
        (fun k ->
          Alcotest.(check bool) "roundtrip member" true (Cluster.Bloom.mem b' k))
        keys;
      List.iter
        (fun k ->
          Alcotest.(check bool) "roundtrip verdicts agree"
            (Cluster.Bloom.mem b k) (Cluster.Bloom.mem b' k))
        absent;
      List.iter
        (fun bad ->
          Alcotest.(check bool) ("rejects " ^ bad) true
            (Cluster.Bloom.of_hex bad = None))
        [ ""; "v1"; "v1:64:4:0:zz"; "v2:64:4:0:00"; "v1:64:4:0:0" ]

(* ------------------------------------------------------------------ ring *)

let test_ring () =
  let peers = [ "a:1"; "b:2"; "c:3"; "b:2"; "" ] in
  let r = Cluster.Ring.create peers in
  Alcotest.(check (list string)) "dedup, empties dropped"
    [ "a:1"; "b:2"; "c:3" ] (Cluster.Ring.peers r);
  let r' = Cluster.Ring.create [ "a:1"; "b:2"; "c:3" ] in
  for i = 0 to 99 do
    let key = Printf.sprintf "fp-%d" i in
    let own = Cluster.Ring.lookup ~n:2 r key in
    Alcotest.(check (list string)) "deterministic across creates" own
      (Cluster.Ring.lookup ~n:2 r' key);
    Alcotest.(check int) "two distinct owners" 2
      (List.length (List.sort_uniq compare own));
    List.iter
      (fun p ->
        Alcotest.(check bool) "owner is a peer" true
          (List.mem p [ "a:1"; "b:2"; "c:3" ]))
      own
  done;
  (* Removing one peer only remaps the keys it owned. *)
  let without = Cluster.Ring.create [ "a:1"; "c:3" ] in
  for i = 0 to 99 do
    let key = Printf.sprintf "fp-%d" i in
    match Cluster.Ring.lookup r key with
    | [ "b:2" ] -> ()
    | [ p ] ->
        Alcotest.(check (list string)) "survivor keeps its keys" [ p ]
          (Cluster.Ring.lookup without key)
    | other ->
        Alcotest.failf "lookup returned %d peers" (List.length other)
  done;
  Alcotest.(check (list string)) "empty ring"
    [] (Cluster.Ring.lookup (Cluster.Ring.create []) "x")

(* ----------------------------------------------------------------- codec *)

let small_outcome =
  lazy
    (let milp =
       { Solver.default_milp_options with Lp.Milp.node_limit = 2;
         time_limit = 20.0 }
     in
     Solver.consolidate ~milp
       (Harness.Line_estate.make
          { Harness.Line_estate.default with Harness.Line_estate.n_groups = 10 }))

let test_codec_roundtrip () =
  let o = Lazy.force small_outcome in
  let encoded = Cluster.Codec.encode o in
  (match Cluster.Codec.decode encoded with
  | None -> Alcotest.fail "decode of a fresh encode failed"
  | Some o' ->
      Alcotest.(check bool) "field-for-field equal" true (o = o'));
  (* Any truncation is a miss, not an exception. *)
  for len = 0 to String.length encoded - 1 do
    match Cluster.Codec.decode (String.sub encoded 0 len) with
    | None -> ()
    | Some _ -> Alcotest.failf "truncation to %d bytes decoded" len
  done;
  Alcotest.(check bool) "trailing garbage rejected" true
    (Cluster.Codec.decode (encoded ^ "x") = None);
  Alcotest.(check bool) "foreign magic rejected" true
    (Cluster.Codec.decode ("ETP9" ^ String.sub encoded 4 (String.length encoded - 4))
     = None)

(* A DR outcome as the store wrote it while plans still carried a pool
   rule flag: the byte after the secondaries, 0 for shared pools.  The
   bytes still decode to the same outcome and re-encode to themselves, and
   a non-zero flag (the dropped dedicated-pool rule) reads as a miss. *)
let test_codec_stored_bytes () =
  let hex =
    "45545031043fc0000000000000000000000000001100000000000001410000000000\
     0000020000000300000000000000020000000101000000030000000100000000000000\
     02003ff800000000000040020000000000004008000000000000401080000000000000\
     000000000000003fe0000000000000408f400000000000401f00000000000000000000\
     000000030000000300000004000000050000000600000003401400000000000040100000\
     000000004018000000000000"
  in
  let stored =
    String.init (String.length hex / 2) (fun k ->
        Char.chr (int_of_string ("0x" ^ String.sub hex (2 * k) 2)))
  in
  let o =
    {
      Solver.placement =
        Placement.with_dr ~primary:[| 0; 2; 1 |] ~secondary:[| 1; 0; 2 |] ();
      summary =
        {
          Evaluate.cost =
            {
              Evaluate.space = 1.5;
              wan = 2.25;
              power = 3.0;
              labor = 4.125;
              fixed = 0.0;
              latency_penalty = 0.5;
              backup_capex = 1000.0;
              backup_ops = 7.75;
            };
          violations = 0;
          dcs_used = 3;
          servers = [| 4; 5; 6 |];
          backups = [| 5.0; 4.0; 6.0 |];
        };
      milp_status = Lp.Status.Node_limit;
      milp_gap = 0.125;
      nodes = 17;
      lp_iterations = 321;
      local_moves = 2;
    }
  in
  Alcotest.(check bool) "stored bytes decode to the outcome" true
    (Cluster.Codec.decode stored = Some o);
  Alcotest.(check string) "encode writes the same bytes" hex
    (String.concat ""
       (List.map
          (fun c -> Printf.sprintf "%02x" (Char.code c))
          (List.of_seq (String.to_seq (Cluster.Codec.encode o)))));
  (* magic, status, gap, three counters, two tagged arrays of three *)
  let flag = 4 + 1 + 8 + (3 * 8) + (4 + 12) + 1 + (4 + 12) in
  let flagged = Bytes.of_string stored in
  Bytes.set flagged flag '\001';
  Alcotest.(check bool) "a set pool flag is a miss" true
    (Cluster.Codec.decode (Bytes.to_string flagged) = None)

(* ----------------------------------------------------------------- store *)

let test_store_restart () =
  with_dir (fun dir ->
      let s = Cluster.Store.open_ ~dir in
      Cluster.Store.add s "k1" "plan-one";
      Cluster.Store.add s "k2" "plan-two";
      Cluster.Store.add s "k2" "plan-two-v2";
      Alcotest.(check (option string)) "live read" (Some "plan-one")
        (Cluster.Store.find s "k1");
      Alcotest.(check (option string)) "last write wins" (Some "plan-two-v2")
        (Cluster.Store.find s "k2");
      Alcotest.(check int) "two live entries" 2 (Cluster.Store.length s);
      Cluster.Store.close s;
      (* Clean restart: index snapshot path. *)
      let s = Cluster.Store.open_ ~dir in
      Alcotest.(check (option string)) "k1 survives restart" (Some "plan-one")
        (Cluster.Store.find s "k1");
      Alcotest.(check (option string)) "k2 survives restart"
        (Some "plan-two-v2") (Cluster.Store.find s "k2");
      Cluster.Store.close s;
      (* Restart without the snapshot: full-scan path. *)
      Sys.remove (idx dir);
      let s = Cluster.Store.open_ ~dir in
      Alcotest.(check (option string)) "k1 survives scan" (Some "plan-one")
        (Cluster.Store.find s "k1");
      Alcotest.(check (option string)) "k2 survives scan" (Some "plan-two-v2")
        (Cluster.Store.find s "k2");
      Cluster.Store.close s)

let test_store_capped_not_persisted () =
  (* The PR 3 poisoning rule at the store boundary: a deadline-capped
     solve must not reach disk even when the caller asks directly. *)
  with_dir (fun dir ->
      let s = Cluster.Store.open_ ~dir in
      Cluster.Store.add s ~capped:true "capped-fp" "starved-plan";
      Cluster.Store.add s ~capped:false "clean-fp" "full-plan";
      Alcotest.(check bool) "capped refused" false
        (Cluster.Store.mem s "capped-fp");
      Alcotest.(check (option string)) "clean accepted" (Some "full-plan")
        (Cluster.Store.find s "clean-fp");
      Cluster.Store.close s;
      let s = Cluster.Store.open_ ~dir in
      Alcotest.(check bool) "capped absent after restart" false
        (Cluster.Store.mem s "capped-fp");
      Alcotest.(check int) "only the clean entry persisted" 1
        (Cluster.Store.length s);
      Cluster.Store.close s)

let test_store_truncated_tail () =
  with_dir (fun dir ->
      let s = Cluster.Store.open_ ~dir in
      Cluster.Store.add s "k1" "first-plan";
      Cluster.Store.add s "k2" "second-plan";
      Cluster.Store.add s "k3" "third-plan";
      Cluster.Store.close s;
      (* Tear the tail mid-entry (drop the snapshot so the scan runs). *)
      Sys.remove (idx dir);
      let size = (Unix.stat (seg dir)).Unix.st_size in
      let fd = Unix.openfile (seg dir) [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size - 5);
      Unix.close fd;
      let s = Cluster.Store.open_ ~dir in
      Alcotest.(check (option string)) "k1 intact" (Some "first-plan")
        (Cluster.Store.find s "k1");
      Alcotest.(check (option string)) "k2 intact" (Some "second-plan")
        (Cluster.Store.find s "k2");
      Alcotest.(check (option string)) "torn k3 is a miss" None
        (Cluster.Store.find s "k3");
      (* The store is healthy: the tail was cut and appends resume. *)
      Cluster.Store.add s "k3" "third-plan-again";
      Alcotest.(check (option string)) "k3 rewritable"
        (Some "third-plan-again") (Cluster.Store.find s "k3");
      Cluster.Store.close s;
      let s = Cluster.Store.open_ ~dir in
      Alcotest.(check int) "all three after repair" 3 (Cluster.Store.length s);
      Cluster.Store.close s)

let test_store_flipped_byte () =
  with_dir (fun dir ->
      let s = Cluster.Store.open_ ~dir in
      Cluster.Store.add s "k1" "first-plan";
      Cluster.Store.add s "k2" "second-plan";
      Cluster.Store.close s;
      (* Bit rot in the last entry's value, snapshot intact: the index
         is trusted (size matches) but the read-time checksum must
         catch the damage. *)
      let size = (Unix.stat (seg dir)).Unix.st_size in
      let fd = Unix.openfile (seg dir) [ Unix.O_RDWR ] 0o644 in
      ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let s = Cluster.Store.open_ ~dir in
      Alcotest.(check (option string)) "clean entry readable"
        (Some "first-plan") (Cluster.Store.find s "k1");
      Alcotest.(check (option string)) "flipped entry is a miss" None
        (Cluster.Store.find s "k2");
      Alcotest.(check int) "corruption counted" 1 (Cluster.Store.corrupt s);
      Alcotest.(check (option string)) "miss is sticky" None
        (Cluster.Store.find s "k2");
      Cluster.Store.close s;
      (* Same damage through the scan path: the scan drops the bad
         entry at open. *)
      Sys.remove (idx dir);
      let s = Cluster.Store.open_ ~dir in
      Alcotest.(check (option string)) "scan keeps the clean prefix"
        (Some "first-plan") (Cluster.Store.find s "k1");
      Alcotest.(check (option string)) "scan drops the damage" None
        (Cluster.Store.find s "k2");
      Cluster.Store.close s)

let test_store_zero_length_index () =
  with_dir (fun dir ->
      let s = Cluster.Store.open_ ~dir in
      Cluster.Store.add s "k1" "first-plan";
      Cluster.Store.add s "k2" "second-plan";
      Cluster.Store.close s;
      let oc = open_out (idx dir) in
      close_out oc;
      Alcotest.(check int) "index truncated" 0
        (Unix.stat (idx dir)).Unix.st_size;
      let s = Cluster.Store.open_ ~dir in
      Alcotest.(check (option string)) "k1 recovered by scan"
        (Some "first-plan") (Cluster.Store.find s "k1");
      Alcotest.(check (option string)) "k2 recovered by scan"
        (Some "second-plan") (Cluster.Store.find s "k2");
      Cluster.Store.close s)

let test_store_compaction () =
  with_dir (fun dir ->
      let s = Cluster.Store.open_ ~dir in
      let fat = String.make 256 'v' in
      for i = 1 to 64 do
        Cluster.Store.add s "hot" (fat ^ string_of_int i)
      done;
      Cluster.Store.add s "cold" "small-plan";
      let before = Cluster.Store.bytes s in
      Alcotest.(check bool) "dead bytes accumulated" true
        (Cluster.Store.dead_bytes s > before / 2);
      Cluster.Store.close s;
      let s = Cluster.Store.open_ ~dir in
      Alcotest.(check int) "compaction dropped dead bytes" 0
        (Cluster.Store.dead_bytes s);
      Alcotest.(check bool)
        (Printf.sprintf "segment shrank (%d -> %d)" before
           (Cluster.Store.bytes s))
        true
        (Cluster.Store.bytes s < before / 4);
      Alcotest.(check (option string)) "hot survives compaction"
        (Some (fat ^ "64"))
        (Cluster.Store.find s "hot");
      Alcotest.(check (option string)) "cold survives compaction"
        (Some "small-plan") (Cluster.Store.find s "cold");
      Cluster.Store.close s)

(* ---------------------------------------------------------------- tiered *)

let backing_tier ?(remote = false) name table =
  {
    Service.Tiered.name;
    remote;
    find = (fun fp -> Hashtbl.find_opt table fp);
    store =
      (fun ~capped fp o -> if not capped then Hashtbl.replace table fp o);
    bytes = None;
  }

let test_tiered_promotion () =
  let o = Lazy.force small_outcome in
  let back : (string, Solver.outcome) Hashtbl.t = Hashtbl.create 4 in
  Hashtbl.replace back "fp1" o;
  let remote : (string, Solver.outcome) Hashtbl.t = Hashtbl.create 4 in
  Hashtbl.replace remote "fp2" o;
  let t =
    Service.Tiered.create
      ~tiers:[ backing_tier "disk" back; backing_tier ~remote:true "peer" remote ]
      ~cache_capacity:8 ()
  in
  (* A disk hit is promoted into memory: the second lookup stops there. *)
  (match Service.Tiered.find t "fp1" with
  | Some (_, tier) -> Alcotest.(check string) "first hit tier" "disk" tier
  | None -> Alcotest.fail "fp1 missed");
  (match Service.Tiered.find t "fp1" with
  | Some (_, tier) -> Alcotest.(check string) "promoted" "memory" tier
  | None -> Alcotest.fail "fp1 missed after promotion");
  (* A peer hit back-fills every cheaper tier, disk included. *)
  (match Service.Tiered.find t "fp2" with
  | Some (_, tier) -> Alcotest.(check string) "peer hit tier" "peer" tier
  | None -> Alcotest.fail "fp2 missed");
  Alcotest.(check bool) "peer hit landed on disk" true
    (Hashtbl.mem back "fp2");
  (* find_local never consults remote tiers. *)
  Hashtbl.replace remote "fp3" o;
  Alcotest.(check bool) "find_local skips peers" true
    (Service.Tiered.find_local t "fp3" = None);
  (* Capped entries are refused by every tier. *)
  Service.Tiered.add t ~capped:true "fp4" o;
  Alcotest.(check bool) "capped not in memory" true
    (Service.Tiered.find_local t "fp4" = None);
  Alcotest.(check bool) "capped not on disk" false (Hashtbl.mem back "fp4");
  (* The per-tier lookup counters feed the metrics surface. *)
  let counts = Service.Tiered.counts t in
  let get tier result =
    match List.assoc_opt (tier, result) counts with Some n -> n | None -> 0
  in
  Alcotest.(check bool) "memory hits counted" true (get "memory" "hit" >= 1);
  Alcotest.(check bool) "disk misses counted" true (get "disk" "miss" >= 1);
  Alcotest.(check bool) "peer hits counted" true (get "peer" "hit" >= 1)

(* ------------------------------------------------------- pool + disk tier *)

let line_milp =
  {
    Service.Job.no_overrides with
    Service.Job.node_limit = Some 2;
    time_limit = Some 20.0;
  }

let small_job () =
  Service.Job.v ~milp:line_milp
    (Harness.Line_jobs.estate ~penalty:40.0
       {
         Harness.Line_estate.default with
         Harness.Line_estate.n_groups = 12;
         frac_at_0 = 0.5;
         latency_penalty = Harness.Line_estate.banded_penalty 40.0;
       })

let test_pool_disk_tier_restart () =
  (* The acceptance scenario: a restarted server answers a previously
     solved fingerprint from the disk tier without re-solving. *)
  with_dir (fun dir ->
      let job = small_job () in
      (* First life: solve and persist. *)
      let first =
        let node = Cluster.Node.create ~cache_dir:dir () in
        let r =
          Service.Pool.with_pool ~workers:0 ~tiers:(Cluster.Node.tiers node)
            (fun pool -> List.hd (Service.Pool.run_batch pool [ job ]))
        in
        Cluster.Node.close node;
        r
      in
      Alcotest.(check bool) "first life solves fresh" false
        first.Service.Pool.cache_hit;
      (* Second life: fresh pool, fresh LRU, same directory. *)
      let trace = Service.Trace.memory () in
      let node = Cluster.Node.create ~cache_dir:dir () in
      let second =
        Service.Pool.with_pool ~workers:0 ~tiers:(Cluster.Node.tiers node)
          ~trace (fun pool ->
            List.hd (Service.Pool.run_batch pool [ job ]))
      in
      Cluster.Node.close node;
      Alcotest.(check bool) "restart hits" true
        second.Service.Pool.cache_hit;
      Alcotest.(check (option string)) "hit came from disk" (Some "disk")
        second.Service.Pool.cache_tier;
      Alcotest.(check (float 0.0)) "no solver time spent" 0.0
        second.Service.Pool.solve_s;
      (match (first.Service.Pool.outcome, second.Service.Pool.outcome) with
      | Some a, Some b ->
          Alcotest.(check bool) "disk plan equals the solved plan" true
            (a = b)
      | _ -> Alcotest.fail "missing outcomes");
      (* The trace span records the serving tier. *)
      Alcotest.(check bool) "trace carries the tier" true
        (contains_substring ~affix:{|"tier":"disk"|}
           (Service.Trace.contents trace));
      (* Third life, snapshot deleted: the scan path serves the same
         hit. *)
      Sys.remove (idx dir);
      let node = Cluster.Node.create ~cache_dir:dir () in
      let third =
        Service.Pool.with_pool ~workers:0 ~tiers:(Cluster.Node.tiers node)
          (fun pool -> List.hd (Service.Pool.run_batch pool [ job ]))
      in
      Cluster.Node.close node;
      Alcotest.(check (option string)) "scan path hits too" (Some "disk")
        third.Service.Pool.cache_tier)

let test_pool_capped_not_on_disk () =
  (* End-to-end: a deadline-capped solve crosses Pool -> Tiered -> Store
     and must be refused at the end of that chain too. *)
  with_dir (fun dir ->
      let job =
        { (small_job ()) with Service.Job.deadline_s = Some 5.0 }
      in
      let node = Cluster.Node.create ~cache_dir:dir () in
      let r =
        Service.Pool.with_pool ~workers:0 ~tiers:(Cluster.Node.tiers node)
          (fun pool -> List.hd (Service.Pool.run_batch pool [ job ]))
      in
      (let store = Option.get (Cluster.Node.store node) in
       Alcotest.(check bool) "capped solve solved" true
         (r.Service.Pool.code = Service.Pool.Solved);
       Alcotest.(check int) "nothing persisted" 0 (Cluster.Store.length store));
      Cluster.Node.close node;
      let node = Cluster.Node.create ~cache_dir:dir () in
      let r2 =
        Service.Pool.with_pool ~workers:0 ~tiers:(Cluster.Node.tiers node)
          (fun pool -> List.hd (Service.Pool.run_batch pool [ job ]))
      in
      Cluster.Node.close node;
      Alcotest.(check bool) "restart re-solves" false
        r2.Service.Pool.cache_hit)

(* ---------------------------------------------------------------- gossip *)

let test_gossip_exchange () =
  (* Pure-local halves of the gossip protocol: digest JSON shape, the
     receive side installing the sender's Bloom filter, and digest
     gating on lookup candidates. *)
  let node = Cluster.Node.create ~peers:[ "127.0.0.1:1" ] () in
  Cluster.Node.set_self node "127.0.0.1:2";
  Cluster.Node.set_local_keys node (fun () -> [ "fp-a"; "fp-b" ]);
  let body = Cluster.Node.digest_json node in
  Alcotest.(check bool) "body has node" true
    (contains_substring ~affix:{|"node":"127.0.0.1:2"|} body);
  Alcotest.(check bool) "body has count" true
    (contains_substring ~affix:{|"count":2|} body);
  (* A second node receives it and answers with its own digest. *)
  let peer = Cluster.Node.create ~peers:[ "127.0.0.1:2" ] () in
  Cluster.Node.set_self peer "127.0.0.1:1";
  Cluster.Node.set_local_keys peer (fun () -> [ "fp-c" ]);
  (match Cluster.Node.gossip_receive peer body with
  | None -> Alcotest.fail "well-formed gossip rejected"
  | Some reply -> (
      Alcotest.(check bool) "reply names the peer" true
        (contains_substring ~affix:{|"node":"127.0.0.1:1"|} reply);
      (* The sender's digest is installed under its advertised name. *)
      match Cluster.Peers.digest_of (Cluster.Node.peers peer) "127.0.0.1:2" with
      | None -> Alcotest.fail "sender digest not installed"
      | Some bloom ->
          Alcotest.(check bool) "digest holds fp-a" true
            (Cluster.Bloom.mem bloom "fp-a");
          Alcotest.(check bool) "digest gates absent keys" false
            (Cluster.Bloom.mem bloom "fp-zzz")));
  Alcotest.(check bool) "garbage gossip rejected" true
    (Cluster.Node.gossip_receive peer "{not json" = None);
  Cluster.Node.close peer;
  Cluster.Node.close node

let suite =
  [
    Alcotest.test_case "bloom: membership and hex wire form" `Quick test_bloom;
    Alcotest.test_case "ring: deterministic consistent hashing" `Quick
      test_ring;
    Alcotest.test_case "codec: exact roundtrip, total decode" `Quick
      test_codec_roundtrip;
    Alcotest.test_case "codec: stored bytes still decode" `Quick
      test_codec_stored_bytes;
    Alcotest.test_case "store: restart via snapshot and scan" `Quick
      test_store_restart;
    Alcotest.test_case "store: capped budget not persisted" `Quick
      test_store_capped_not_persisted;
    Alcotest.test_case "store: truncated tail reads as misses" `Quick
      test_store_truncated_tail;
    Alcotest.test_case "store: flipped byte reads as miss" `Quick
      test_store_flipped_byte;
    Alcotest.test_case "store: zero-length index recovers" `Quick
      test_store_zero_length_index;
    Alcotest.test_case "store: startup compaction" `Quick test_store_compaction;
    Alcotest.test_case "tiered: promotion, find_local, counters" `Quick
      test_tiered_promotion;
    Alcotest.test_case "pool: disk tier survives restart" `Quick
      test_pool_disk_tier_restart;
    Alcotest.test_case "pool: capped solve never reaches disk" `Quick
      test_pool_capped_not_on_disk;
    Alcotest.test_case "gossip: digest exchange and gating" `Quick
      test_gossip_exchange;
  ]
