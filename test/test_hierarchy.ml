(* Cachesim.Hierarchy + set-sharded replay.

   Two load-bearing invariants: (1) the inter-level funnel is exact — a
   level's accesses equal the level above's misses plus writebacks, per
   owner, once the hierarchy is flushed; (2) partitioning by set index
   changes nothing — a 1-level hierarchy is bit-identical to the single
   cache it wraps, and sharded fused replay is bit-identical to the
   serial fused walk at every shard/job count. *)

module C = Cachesim
module Mt = Memtrace

let snap cache = C.Stats.snapshot (C.Cache.stats cache)

let check_snapshots name (a : C.Stats.snapshot) (b : C.Stats.snapshot) =
  Alcotest.(check bool) name true (a = b)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let tiny = C.Config.make ~name:"tiny" ~associativity:2 ~sets:4 ~line:16

(* Same deterministic stream as test_tape: mixes owners, strides, sizes
   and line-crossing accesses, and overflows [tiny] enough to evict. *)
let synthetic_events n =
  List.init n (fun i ->
      let owner = 1 + (i mod 3) in
      let addr = (i * 24 mod 4096) + (i mod 7 * 4096) in
      let size = 1 + (i mod 9) in
      if i mod 4 = 0 then Mt.Event.write ~owner ~addr ~size
      else Mt.Event.read ~owner ~addr ~size)

let tape_of events = Fixtures.tape_of_events ~chunk_events:256 events

let nofeed = C.Cache.nofeed

(* The full (one-shard) walk of a tape into hierarchies. *)
let replay_hierarchies tape hs =
  Mt.Tape.replay_view_hierarchies (Mt.Tape.view tape ~shards:1 ~shard:0) hs

let level_snaps h =
  List.init (C.Hierarchy.depth h) (fun i ->
      snap (C.Hierarchy.level_cache h i))

(* --- Config.hierarchy_of --- *)

let test_hierarchy_of () =
  (match C.Config.hierarchy_of ~levels:1 tiny with
  | [ l1 ] -> Alcotest.(check bool) "level 1 is the base itself" true (l1 = tiny)
  | _ -> Alcotest.fail "levels:1 must yield one config");
  (match C.Config.hierarchy_of ~levels:3 tiny with
  | [ l1; l2; l3 ] ->
      Alcotest.(check bool) "L1 unchanged" true (l1 = tiny);
      Alcotest.(check string) "L2 name" "tiny/L2" l2.C.Config.name;
      Alcotest.(check string) "L3 name" "tiny/L3" l3.C.Config.name;
      Alcotest.(check int) "L2 sets = 8x" 32 l2.C.Config.sets;
      Alcotest.(check int) "L3 sets = 64x" 256 l3.C.Config.sets;
      List.iter
        (fun (cfg : C.Config.t) ->
          Alcotest.(check int) "line preserved" tiny.C.Config.line
            cfg.C.Config.line;
          Alcotest.(check int) "assoc preserved" tiny.C.Config.associativity
            cfg.C.Config.associativity)
        [ l2; l3 ]
  | _ -> Alcotest.fail "levels:3 must yield three configs");
  expect_invalid "levels 0" (fun () -> C.Config.hierarchy_of ~levels:0 tiny);
  expect_invalid "levels 4" (fun () -> C.Config.hierarchy_of ~levels:4 tiny)

let test_create_validation () =
  expect_invalid "empty" (fun () -> C.Hierarchy.create []);
  expect_invalid "mismatched line sizes" (fun () ->
      C.Hierarchy.create
        [ tiny; C.Config.make ~name:"wide" ~associativity:2 ~sets:4 ~line:32 ]);
  expect_invalid "bad funnel" (fun () ->
      C.Hierarchy.create ~funnel_events:0 [ tiny ]);
  (* A forwarded line must fit one packed event. *)
  expect_invalid "line above max_size" (fun () ->
      C.Hierarchy.create
        [ C.Config.make ~name:"huge" ~associativity:1 ~sets:1 ~line:16384 ]);
  let h = C.Hierarchy.create (C.Config.hierarchy_of ~levels:2 tiny) in
  Alcotest.(check int) "depth" 2 (C.Hierarchy.depth h);
  (* max_shards is the smallest set count over the levels — L1's here. *)
  Alcotest.(check int) "max_shards" 4 (C.Hierarchy.max_shards h);
  expect_invalid "level out of range" (fun () ->
      ignore (C.Hierarchy.level_cache h 2))

(* --- 1-level hierarchy == plain cache --- *)

let test_one_level_identity_synthetic () =
  let events = synthetic_events 3000 in
  let plain = C.Cache.create tiny in
  let h = C.Hierarchy.create [ tiny ] in
  List.iter
    (fun (e : Mt.Event.t) ->
      C.Cache.access plain ~owner:e.Mt.Event.owner ~write:e.Mt.Event.write
        ~addr:e.Mt.Event.addr ~size:e.Mt.Event.size;
      C.Hierarchy.access h ~owner:e.Mt.Event.owner ~write:e.Mt.Event.write
        ~addr:e.Mt.Event.addr ~size:e.Mt.Event.size)
    events;
  C.Cache.flush plain;
  C.Hierarchy.flush h;
  check_snapshots "1-level = plain cache" (snap plain)
    (snap (C.Hierarchy.level_cache h 0))

let capture_instance instance = (Core.Verify.capture instance).Core.Verify.tape

let test_one_level_identity_all_workloads () =
  List.iter
    (fun workload ->
      let instance = Core.Workloads.verification_instance workload in
      let tape = capture_instance instance in
      List.iter
        (fun cfg ->
          let plain = C.Cache.create cfg in
          Mt.Tape.replay_fused tape [| plain |];
          C.Cache.flush plain;
          let h = C.Hierarchy.create [ cfg ] in
          replay_hierarchies tape [| h |];
          C.Hierarchy.flush h;
          check_snapshots
            (Printf.sprintf "%s on %s" instance.Core.Workload.workload
               cfg.C.Config.name)
            (snap plain)
            (snap (C.Hierarchy.level_cache h 0)))
        C.Config.verification_set)
    (Core.Workloads.all ())

(* --- the funnel invariant --- *)

let check_funnel_invariant name h =
  (* After flush, level i+1's lookups are exactly level i's demand fills
     (misses) plus its write-back spills — per owner, not just in
     total. *)
  for i = 0 to C.Hierarchy.depth h - 2 do
    let upper = C.Stats.snapshot (C.Cache.stats (C.Hierarchy.level_cache h i)) in
    let lower =
      C.Stats.snapshot (C.Cache.stats (C.Hierarchy.level_cache h (i + 1)))
    in
    let owners =
      List.sort_uniq compare
        (C.Stats.Snapshot.owners upper @ C.Stats.Snapshot.owners lower)
    in
    List.iter
      (fun owner ->
        let u = C.Stats.Snapshot.owner upper owner in
        let l = C.Stats.Snapshot.owner lower owner in
        Alcotest.(check int)
          (Printf.sprintf "%s: L%d accesses(owner %d) = L%d misses + writebacks"
             name (i + 2) owner (i + 1))
          (u.C.Stats.misses + u.C.Stats.writebacks)
          (C.Stats.Snapshot.accesses l))
      owners;
    let u = C.Stats.Snapshot.totals upper in
    let l = C.Stats.Snapshot.totals lower in
    Alcotest.(check int)
      (Printf.sprintf "%s: L%d total accesses" name (i + 2))
      (u.C.Stats.misses + u.C.Stats.writebacks)
      (C.Stats.Snapshot.accesses l)
  done

let test_funnel_invariant () =
  List.iter
    (fun levels ->
      let h = C.Hierarchy.create (C.Config.hierarchy_of ~levels tiny) in
      List.iter
        (fun (e : Mt.Event.t) ->
          C.Hierarchy.access h ~owner:e.Mt.Event.owner ~write:e.Mt.Event.write
            ~addr:e.Mt.Event.addr ~size:e.Mt.Event.size)
        (synthetic_events 5000);
      C.Hierarchy.flush h;
      (* The stream overflows tiny, so the invariant is not vacuous. *)
      let l1 = C.Stats.Snapshot.totals (snap (C.Hierarchy.level_cache h 0)) in
      Alcotest.(check bool) "L1 missed" true (l1.C.Stats.misses > 0);
      Alcotest.(check bool) "L1 wrote back" true (l1.C.Stats.writebacks > 0);
      check_funnel_invariant (Printf.sprintf "%d-level" levels) h)
    [ 2; 3 ]

(* Flush-cascade attribution, checked against a four-event mini-trace
   computed by hand.  Lines A(0x00), B(0x40) and C(0x80) share L1 set 0
   of [tiny] (2-way), D(0x10) sits alone in set 1; L2 (8x the sets)
   never evicts.  The regression of interest: a dirty line flushed out
   of L1 must surface in L2 exactly once — as one write lookup charged
   to its owner — and each level's flush writebacks must stay with the
   owner of the dirty line, not the owner that triggered the flush. *)
let test_flush_attribution_mini_trace () =
  let h = C.Hierarchy.create (C.Config.hierarchy_of ~levels:2 tiny) in
  let access ~owner ~write addr =
    C.Hierarchy.access h ~owner ~write ~addr ~size:4
  in
  access ~owner:1 ~write:true 0x00;   (* A: miss, installs dirty *)
  access ~owner:1 ~write:false 0x40;  (* B: miss *)
  access ~owner:2 ~write:false 0x80;  (* C: miss, evicts dirty A *)
  access ~owner:3 ~write:true 0x10;   (* D: miss, installs dirty *)
  C.Hierarchy.flush h;
  let l1 = snap (C.Hierarchy.level_cache h 0) in
  let l2 = snap (C.Hierarchy.level_cache h 1) in
  let check name (s : C.Stats.snapshot) owner ~accesses ~misses ~writebacks =
    let c = C.Stats.Snapshot.owner s owner in
    Alcotest.(check int)
      (Printf.sprintf "%s owner %d accesses" name owner)
      accesses
      (C.Stats.Snapshot.accesses c);
    Alcotest.(check int)
      (Printf.sprintf "%s owner %d misses" name owner)
      misses c.C.Stats.misses;
    Alcotest.(check int)
      (Printf.sprintf "%s owner %d writebacks" name owner)
      writebacks c.C.Stats.writebacks
  in
  (* L1: owner 1 wrote A back on C's arrival; owner 3's D went back at
     flush.  Owner 2 triggered A's eviction but owns no writeback. *)
  check "L1" l1 1 ~accesses:2 ~misses:2 ~writebacks:1;
  check "L1" l1 2 ~accesses:1 ~misses:1 ~writebacks:0;
  check "L1" l1 3 ~accesses:1 ~misses:1 ~writebacks:1;
  (* L2: four demand fills plus exactly two write-back lookups — A's
     (mid-run, a hit over its own fill) and D's (from the flush
     cascade).  A and D are dirty in L2, so its own flush writes both
     back to memory, again charged to their owners. *)
  check "L2" l2 1 ~accesses:3 ~misses:2 ~writebacks:1;
  check "L2" l2 2 ~accesses:1 ~misses:1 ~writebacks:0;
  check "L2" l2 3 ~accesses:2 ~misses:1 ~writebacks:1;
  let t1 = C.Stats.Snapshot.totals l1 and t2 = C.Stats.Snapshot.totals l2 in
  Alcotest.(check int) "L2 accesses = L1 misses + writebacks"
    (t1.C.Stats.misses + t1.C.Stats.writebacks)
    (C.Stats.Snapshot.accesses t2);
  Alcotest.(check int) "L2 hit count: A's writeback found its fill" 2
    t2.C.Stats.hits

(* A small funnel buffer forces mid-batch drains; the traffic a level
   forwards must not depend on the buffer size. *)
let test_funnel_capacity_invariance () =
  let events = synthetic_events 4000 in
  let run funnel_events =
    let h =
      C.Hierarchy.create ~funnel_events (C.Config.hierarchy_of ~levels:2 tiny)
    in
    List.iter
      (fun (e : Mt.Event.t) ->
        C.Hierarchy.access h ~owner:e.Mt.Event.owner ~write:e.Mt.Event.write
          ~addr:e.Mt.Event.addr ~size:e.Mt.Event.size)
      events;
    C.Hierarchy.flush h;
    level_snaps h
  in
  let tiny_buf = run 1 and small_buf = run 13 and big_buf = run 65536 in
  Alcotest.(check bool) "funnel 1 = funnel 13" true (tiny_buf = small_buf);
  Alcotest.(check bool) "funnel 13 = funnel 65536" true (small_buf = big_buf)

(* --- the chained naive LRU oracle ---

   Level k+1 of the hierarchy sees exactly level k's traffic: each fill
   as a line-sized read and each dirty eviction as a line-sized write,
   in the order level k emitted them, then level k's end-of-run spills.
   Chaining test_cachesim's naive list LRU that way gives every level's
   statistics with no queue, drain or shard in sight, so the property
   checks Hierarchy's funnel (forwarding order, drains mid-walk, the
   flush cascade, set sharding) against a model that has none of it.

   Every level runs on the program's clock: a fill or spill is stamped
   with the time of the level-k event that caused it, which is itself
   the ordinal of the originating L1 event, and the flush's spills with
   the horizon (the number of L1 events).  Returns each level's
   reference run, L1 first. *)

let chained_reference configs events =
  let horizon = Array.length events in
  let rec walk input times = function
    | [] -> []
    | (cfg : C.Config.t) :: deeper ->
        let r = Test_cachesim.reference_lru ~times ~horizon cfg input in
        let line = cfg.C.Config.line in
        let forward = function
          | Test_cachesim.Fill (owner, l) -> (l * line, line, owner, false)
          | Test_cachesim.Spill (owner, l) -> (l * line, line, owner, true)
        in
        let traffic = List.map fst r.feed @ r.flush in
        let stamps = List.map snd r.feed @ List.map (fun _ -> horizon) r.flush in
        r
        :: walk
             (Array.of_list (List.map forward traffic))
             (Array.of_list stamps) deeper
  in
  walk events (Array.init horizon Fun.id) configs

let gen_chain_case =
  let open QCheck.Gen in
  let* line = oneofl [ 8; 16; 32 ] in
  let* levels =
    list_size (2 -- 3) (pair (oneofl [ 1; 2; 4; 8; 16 ]) (1 -- 4))
  in
  let* shards = oneofl [ 1; 2; 4 ] in
  let* funnel = 1 -- 8 in
  let* events =
    array_size (1 -- 300) (quad (0 -- 2047) (1 -- 100) (0 -- 5) bool)
  in
  let* cuts = list_size (0 -- 6) (0 -- Array.length events) in
  return (line, levels, shards, funnel, events, cuts)

let print_chain_case (line, levels, shards, funnel, events, cuts) =
  Printf.sprintf "line %d, levels [%s], %d shards, funnel %d, %d events, cuts [%s]"
    line
    (String.concat "; "
       (List.map (fun (s, a) -> Printf.sprintf "%d sets %d-way" s a) levels))
    shards funnel (Array.length events)
    (String.concat ";" (List.map string_of_int cuts))

let prop_hierarchy_matches_chained_lru =
  QCheck.Test.make ~count:300 ~name:"hierarchy = chained naive LRU"
    (QCheck.make ~print:print_chain_case gen_chain_case)
    (fun (line, levels, shards, funnel, events, cuts) ->
      let configs =
        List.mapi
          (fun i (sets, associativity) ->
            C.Config.make ~name:(Printf.sprintf "L%d" (i + 1)) ~associativity
              ~sets ~line)
          levels
      in
      let n = Array.length events in
      let packed =
        Array.map
          (fun (addr, size, owner, write) -> C.Cache.pack ~owner ~write ~addr ~size)
          events
      in
      let bounds = List.sort_uniq compare ((0 :: cuts) @ [ n ]) in
      let replicas =
        List.init shards (fun shard ->
            let h = C.Hierarchy.create ~funnel_events:funnel configs in
            let rec batches = function
              | a :: (b :: _ as rest) ->
                  C.Hierarchy.access_batch h ~events:packed ~pos:a
                    ~len:(b - a) ~shards ~shard;
                  batches rest
              | _ -> ()
            in
            batches bounds;
            C.Hierarchy.flush h;
            h)
      in
      let summed =
        List.init (List.length configs) (fun level ->
            C.Stats.snapshot
              (C.Stats.sum
                 (List.map
                    (fun h -> C.Cache.stats (C.Hierarchy.level_cache h level))
                    replicas)))
      in
      summed
      = List.map
          (fun (r : Test_cachesim.reference) -> C.Stats.snapshot r.stats)
          (chained_reference configs events))

(* --- sharded walks are bit-identical --- *)

let test_cache_sharded_identity () =
  let tape = tape_of (synthetic_events 3000) in
  let configs = C.Config.verification_set in
  let serial = Array.of_list (List.map C.Cache.create configs) in
  Mt.Tape.replay_fused tape serial;
  Array.iter C.Cache.flush serial;
  List.iter
    (fun shards ->
      (* One private replica set per shard, statistics merged in shard
         order — the parallel plan, run here serially. *)
      let replicas =
        Array.init shards (fun shard ->
            let caches = Array.of_list (List.map C.Cache.create configs) in
            Mt.Tape.replay_fused_sharded tape caches ~shards ~shard;
            Array.iter C.Cache.flush caches;
            caches)
      in
      List.iteri
        (fun i (cfg : C.Config.t) ->
          let merged =
            C.Stats.sum
              (Array.to_list
                 (Array.map (fun caches -> C.Cache.stats caches.(i)) replicas))
          in
          Alcotest.(check bool)
            (Printf.sprintf "%d shards on %s" shards cfg.C.Config.name)
            true
            (C.Stats.snapshot merged = snap serial.(i)))
        configs)
    [ 1; 2; 8 ]

let test_hierarchy_sharded_identity () =
  let tape = tape_of (synthetic_events 3000) in
  let configs = C.Config.hierarchy_of ~levels:2 C.Config.small_verification in
  let serial = C.Hierarchy.create configs in
  replay_hierarchies tape [| serial |];
  C.Hierarchy.flush serial;
  let serial_levels = level_snaps serial in
  List.iter
    (fun shards ->
      let replicas =
        Array.init shards (fun shard ->
            let h = C.Hierarchy.create configs in
            Mt.Tape.replay_view_hierarchies (Mt.Tape.view tape ~shards ~shard)
              [| h |];
            C.Hierarchy.flush h;
            h)
      in
      let merged_levels =
        List.init (List.length configs) (fun level ->
            C.Stats.snapshot
              (C.Stats.sum
                 (Array.to_list
                    (Array.map
                       (fun h -> C.Cache.stats (C.Hierarchy.level_cache h level))
                       replicas))))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards, both levels" shards)
        true
        (merged_levels = serial_levels))
    [ 1; 2; 8 ]

(* --- atomic batch validation (regression) ---

   [access_batch] used to validate per event mid-walk, so a bad event
   aborted the batch after mutating the cache.  Validation is now up
   front: a rejected batch must leave statistics and contents alone. *)

let test_failed_batch_leaves_cache_untouched () =
  let cache = C.Cache.create tiny in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:2 ~write:false ~line_addr:48);
  let before = snap cache in
  let write addr = C.Cache.pack ~owner:1 ~write:true ~addr ~size:4 in
  let events = [| write 0; write 64; -8; write 128 |] in
  Alcotest.check_raises "negative event word rejected"
    (Invalid_argument "Cache.access_batch: invalid event word at index 2")
    (fun () ->
      C.Cache.access_batch cache ~events ~pos:0 ~len:4 ~shards:1 ~shard:0
        ~fill:nofeed ~spill:nofeed);
  expect_invalid "sharded walk rejects it too" (fun () ->
      C.Cache.access_batch cache ~events ~pos:0 ~len:4 ~shards:2 ~shard:0
        ~fill:nofeed ~spill:nofeed);
  check_snapshots "stats untouched" before (snap cache);
  (* The valid prefix (indices 0..1) was not installed either. *)
  Alcotest.(check int) "no new resident lines" 0
    (C.Cache.resident_lines cache ~owner:1 - 1)

(* A shard past the hierarchy's clamp walks nothing, but its batch is
   still checked: the same bad word [Cache.access_batch] rejects is
   rejected here on every shard, and nothing changes. *)
let test_failed_batch_leaves_hierarchy_untouched () =
  let one_set = C.Config.make ~name:"one-set" ~associativity:2 ~sets:1 ~line:16 in
  let h = C.Hierarchy.create [ one_set ] in
  let cache = C.Hierarchy.level_cache h 0 in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:0);
  let before = snap cache in
  List.iter
    (fun (shards, shard) ->
      expect_invalid
        (Printf.sprintf "invalid word, shard %d of %d" shard shards)
        (fun () ->
          C.Hierarchy.access_batch h ~events:[| -1 |] ~pos:0 ~len:1 ~shards
            ~shard);
      expect_invalid
        (Printf.sprintf "bad range, shard %d of %d" shard shards)
        (fun () ->
          C.Hierarchy.access_batch h ~events:[||] ~pos:0 ~len:1 ~shards ~shard))
    [ (1, 0); (2, 0); (2, 1); (8, 7) ];
  expect_invalid "Cache.access_batch agrees" (fun () ->
      C.Cache.access_batch (C.Cache.create one_set) ~events:[| -1 |] ~pos:0
        ~len:1 ~shards:2 ~shard:1 ~fill:nofeed ~spill:nofeed);
  check_snapshots "stats untouched" before (snap cache);
  Alcotest.(check int) "line still resident" 1
    (C.Cache.resident_lines cache ~owner:1)

let test_sharded_argument_validation () =
  let cache = C.Cache.create tiny in
  let events = [| C.Cache.pack ~owner:1 ~write:false ~addr:0 ~size:4 |] in
  let walk ~shards ~shard =
    C.Cache.access_batch cache ~events ~pos:0 ~len:1 ~shards ~shard
      ~fill:nofeed ~spill:nofeed
  in
  expect_invalid "shards not a power of two" (fun () -> walk ~shards:3 ~shard:0);
  expect_invalid "shards zero" (fun () -> walk ~shards:0 ~shard:0);
  expect_invalid "shard out of range" (fun () -> walk ~shards:2 ~shard:2);
  expect_invalid "effective_shards validates" (fun () ->
      ignore (C.Cache.effective_shards cache ~shards:6));
  Alcotest.(check int) "effective_shards clamps to sets" 4
    (C.Cache.effective_shards cache ~shards:64);
  (* A shard beyond the clamp owns no sets: walking it is a no-op. *)
  walk ~shards:64 ~shard:33;
  Alcotest.(check int) "clamped shard is a no-op" 0
    (C.Stats.Snapshot.accesses (C.Stats.Snapshot.totals (snap cache)))

(* --- snapshot owner lookup (binary search) --- *)

let test_snapshot_owner_lookup () =
  let stats = C.Stats.create () in
  (* Insert owners far from sorted order; the snapshot must come out
     ascending and every lookup must land on the right entry. *)
  let owners = [ 40; 2; 1000; 0; 7; 31; 512 ] in
  List.iteri
    (fun i owner ->
      for _ = 0 to i do
        C.Stats.record_access stats ~owner ~write:(i mod 2 = 0) ~hit:false
      done)
    owners;
  let s = C.Stats.snapshot stats in
  let sorted = List.sort compare owners in
  Alcotest.(check (list int)) "per_owner ascending" sorted
    (Array.to_list (Array.map fst s.C.Stats.per_owner));
  List.iteri
    (fun i owner ->
      Alcotest.(check int)
        (Printf.sprintf "owner %d found" owner)
        (i + 1)
        (C.Stats.Snapshot.accesses (C.Stats.Snapshot.owner s owner)))
    owners;
  (* Absent owners — below, between and above the present range. *)
  List.iter
    (fun owner ->
      Alcotest.(check int)
        (Printf.sprintf "owner %d absent" owner)
        0
        (C.Stats.Snapshot.accesses (C.Stats.Snapshot.owner s owner)))
    [ -1; 1; 3; 30; 32; 511; 513; 999; 1001; max_int ]

(* --- Verify sweeps --- *)

let test_run_all_levels () =
  let workloads = [ Core.Workloads.vm; Core.Workloads.mc ] in
  let classic = Core.Verify.run_all ~jobs:1 ~workloads () in
  (* levels:1 reports the same traffic the classic rows simulate. *)
  let l1 = Core.Verify.run_all_levels ~jobs:1 ~workloads ~levels:1 () in
  Alcotest.(check int) "same row count at levels:1" (List.length classic)
    (List.length l1);
  List.iter2
    (fun (r : Core.Verify.row) (l : Core.Verify.level_row) ->
      Alcotest.(check string) "workload" r.Core.Verify.workload
        l.Core.Verify.l_workload;
      Alcotest.(check string) "structure" r.Core.Verify.structure
        l.Core.Verify.l_structure;
      Alcotest.(check int) "level" 1 l.Core.Verify.level;
      Alcotest.(check (float 0.0)) "misses + writebacks = simulated"
        r.Core.Verify.simulated
        (l.Core.Verify.misses +. l.Core.Verify.l_writebacks))
    classic l1;
  (* levels:2 rows obey the funnel invariant per workload/cache pair. *)
  let l2 = Core.Verify.run_all_levels ~jobs:1 ~workloads ~levels:2 () in
  let keys =
    List.sort_uniq compare
      (List.map
         (fun (l : Core.Verify.level_row) ->
           (l.Core.Verify.l_workload, l.Core.Verify.base_cache.C.Config.name))
         l2)
  in
  Alcotest.(check int) "2 workloads x 2 geometries" 4 (List.length keys);
  List.iter
    (fun (wl, cache) ->
      let level n =
        List.filter
          (fun (l : Core.Verify.level_row) ->
            l.Core.Verify.l_workload = wl
            && l.Core.Verify.base_cache.C.Config.name = cache
            && l.Core.Verify.level = n)
          l2
      in
      let sum f rows = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s/%s: L2 accesses = L1 misses + writebacks" wl cache)
        (sum
           (fun (l : Core.Verify.level_row) ->
             l.Core.Verify.misses +. l.Core.Verify.l_writebacks)
           (level 1))
        (sum (fun (l : Core.Verify.level_row) -> l.Core.Verify.accesses)
           (level 2)))
    keys;
  (* Wider sharded runs reproduce the serial per-level rows. *)
  List.iter
    (fun jobs ->
      let sharded = Core.Verify.run_all_levels ~jobs ~workloads ~levels:2 () in
      Alcotest.(check bool)
        (Printf.sprintf "-j %d = -j 1 (levels:2)" jobs)
        true (sharded = l2))
    [ 2; 16 ];
  expect_invalid "levels 0 rejected" (fun () ->
      ignore (Core.Verify.run_all_levels ~jobs:1 ~workloads ~levels:0 ()))

let suite =
  [
    Alcotest.test_case "Config.hierarchy_of" `Quick test_hierarchy_of;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "1-level = plain cache (synthetic)" `Quick
      test_one_level_identity_synthetic;
    Alcotest.test_case "1-level = plain cache (all workloads)" `Quick
      test_one_level_identity_all_workloads;
    Alcotest.test_case "funnel invariant (2 and 3 levels)" `Quick
      test_funnel_invariant;
    Alcotest.test_case "flush attribution (hand-computed)" `Quick
      test_flush_attribution_mini_trace;
    Alcotest.test_case "funnel capacity invariance" `Quick
      test_funnel_capacity_invariance;
    QCheck_alcotest.to_alcotest prop_hierarchy_matches_chained_lru;
    Alcotest.test_case "sharded fused = fused (caches)" `Quick
      test_cache_sharded_identity;
    Alcotest.test_case "sharded fused = fused (hierarchies)" `Quick
      test_hierarchy_sharded_identity;
    Alcotest.test_case "failed batch leaves cache untouched" `Quick
      test_failed_batch_leaves_cache_untouched;
    Alcotest.test_case "failed batch leaves hierarchy untouched" `Quick
      test_failed_batch_leaves_hierarchy_untouched;
    Alcotest.test_case "sharded argument validation" `Quick
      test_sharded_argument_validation;
    Alcotest.test_case "snapshot owner lookup" `Quick
      test_snapshot_owner_lookup;
    Alcotest.test_case "per-level verification rows" `Quick
      test_run_all_levels;
  ]
