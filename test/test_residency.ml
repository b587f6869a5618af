(* Cachesim.Residency: per-line residency-time accounting.

   The load-bearing properties: (1) the integrals are exact — an
   independent per-event census of resident lines reproduces every
   owner's residency time; (2) the histogram conserves the integral —
   each owner's bins sum to its clean/dirty times; (3) clock plumbing is
   invariant — batch walks, sharded replicas (merged with
   [Residency.sum]) and every timed-verify strategy/job count reproduce
   the serial per-event accumulator bit for bit. *)

module C = Cachesim
module R = Cachesim.Residency
module Mt = Memtrace

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let tiny = C.Config.make ~name:"tiny" ~associativity:2 ~sets:4 ~line:16

(* Same deterministic stream as test_hierarchy: mixes owners, strides
   and sizes, and overflows [tiny] enough to evict. *)
let synthetic_events n =
  List.init n (fun i ->
      let owner = 1 + (i mod 3) in
      let addr = (i * 24 mod 4096) + (i mod 7 * 4096) in
      let size = 1 + (i mod 9) in
      if i mod 4 = 0 then Mt.Event.write ~owner ~addr ~size
      else Mt.Event.read ~owner ~addr ~size)

let tape_of events = Fixtures.tape_of_events ~chunk_events:256 events

let timed_cache ?bins ~horizon cfg =
  let cache = C.Cache.create cfg in
  let res = R.create ?bins ~horizon () in
  C.Cache.attach_residency cache res;
  (cache, res)

(* --- accumulator validation and clamping --- *)

let test_validation () =
  expect_invalid "bins 0" (fun () -> R.create ~bins:0 ~horizon:10 ());
  expect_invalid "negative horizon" (fun () -> R.create ~horizon:(-1) ());
  let r = R.create ~bins:4 ~horizon:10 () in
  expect_invalid "t1 < t0" (fun () ->
      R.record_interval r ~owner:1 ~dirty:false ~t0:5 ~t1:4);
  expect_invalid "negative owner" (fun () ->
      R.record_interval r ~owner:(-1) ~dirty:false ~t0:0 ~t1:1);
  (* Intervals are clamped to [0, horizon]. *)
  R.record_interval r ~owner:1 ~dirty:false ~t0:(-5) ~t1:3;
  R.record_interval r ~owner:1 ~dirty:true ~t0:8 ~t1:25;
  (* Entirely outside: a no-op, not an error. *)
  R.record_interval r ~owner:1 ~dirty:false ~t0:12 ~t1:30;
  let c = R.Snapshot.owner (R.snapshot r) 1 in
  Alcotest.(check int) "clean clamped at 0" 3 c.R.clean_time;
  Alcotest.(check int) "dirty clamped at horizon" 2 c.R.dirty_time;
  Alcotest.(check int) "bins" 4 (R.bins r);
  Alcotest.(check int) "horizon" 10 (R.horizon r);
  Alcotest.(check int) "bin width rounds up" 3 (R.bin_width r)

(* --- hand-computed mini-traces --- *)

(* Lines 0x000, 0x040 and 0x080 all map to set 0 of [tiny] (2-way), so
   the third install evicts.  Every interval below is checked by hand. *)
let test_hand_computed_evictions () =
  let cache, res = timed_cache ~horizon:4 tiny in
  (* t=0: write A (owner 1) — installs dirty.  t=1: read B (owner 1).
     t=2: read C (owner 2) — evicts A, dirty phase [0,2).  t=3: read A
     again (owner 1) — evicts B, clean phase [1,3).  Flush at 4 closes
     C [2,4) and the re-installed A [3,4), both clean. *)
  C.Cache.access cache ~owner:1 ~write:true ~addr:0 ~size:4;
  C.Cache.access cache ~owner:1 ~write:false ~addr:64 ~size:4;
  C.Cache.access cache ~owner:2 ~write:false ~addr:128 ~size:4;
  C.Cache.access cache ~owner:1 ~write:false ~addr:0 ~size:4;
  C.Cache.flush cache;
  let s = R.snapshot res in
  let o1 = R.Snapshot.owner s 1 and o2 = R.Snapshot.owner s 2 in
  Alcotest.(check int) "owner 1 dirty [0,2)" 2 o1.R.dirty_time;
  Alcotest.(check int) "owner 1 clean [1,3)+[3,4)" 3 o1.R.clean_time;
  Alcotest.(check int) "owner 1 fills" 3 o1.R.fills;
  Alcotest.(check int) "owner 1 evictions" 2 o1.R.evictions;
  Alcotest.(check int) "owner 1 flushes" 1 o1.R.flushes;
  Alcotest.(check int) "owner 2 clean [2,4)" 2 o2.R.clean_time;
  Alcotest.(check int) "owner 2 dirty" 0 o2.R.dirty_time;
  Alcotest.(check int) "owner 2 flushes" 1 o2.R.flushes;
  let t = R.Snapshot.totals s in
  Alcotest.(check int) "total resident time" 7 (R.Snapshot.resident_time t);
  Alcotest.(check (float 1e-9)) "mean resident lines" (7.0 /. 4.0)
    (R.Snapshot.mean_resident_lines s t)

(* A write hit on a clean line ends the clean phase and opens a dirty
   one at that instant. *)
let test_hand_computed_dirty_transition () =
  let cache, res = timed_cache ~horizon:3 tiny in
  C.Cache.access cache ~owner:1 ~write:false ~addr:0 ~size:4;
  C.Cache.access cache ~owner:1 ~write:true ~addr:0 ~size:4;
  C.Cache.access cache ~owner:1 ~write:false ~addr:0 ~size:4;
  C.Cache.flush cache;
  let c = R.Snapshot.owner (R.snapshot res) 1 in
  Alcotest.(check int) "clean phase [0,1)" 1 c.R.clean_time;
  Alcotest.(check int) "dirty phase [1,3)" 2 c.R.dirty_time;
  Alcotest.(check int) "one fill" 1 c.R.fills;
  Alcotest.(check int) "no evictions" 0 c.R.evictions;
  Alcotest.(check int) "one flush" 1 c.R.flushes;
  Alcotest.(check (float 1e-9)) "dirty fraction" (2.0 /. 3.0)
    (R.Snapshot.dirty_fraction c)

(* --- conservation against an independent census ---

   After each event, [Cache.resident_lines] counts each owner's lines
   directly from the cache contents.  Summing that census over all
   event ordinals must equal the accumulator's residency integral, and
   each owner's histogram must sum back to its integral. *)

let test_conservation_census () =
  let n = 3000 in
  let events = synthetic_events n in
  let cache, res = timed_cache ~horizon:n tiny in
  let owners = [ 1; 2; 3 ] in
  let census = Hashtbl.create 8 in
  List.iter
    (fun (e : Mt.Event.t) ->
      C.Cache.access cache ~owner:e.Mt.Event.owner ~write:e.Mt.Event.write
        ~addr:e.Mt.Event.addr ~size:e.Mt.Event.size;
      List.iter
        (fun owner ->
          let resident = C.Cache.resident_lines cache ~owner in
          Hashtbl.replace census owner
            (resident
            + Option.value ~default:0 (Hashtbl.find_opt census owner)))
        owners)
    events;
  C.Cache.flush cache;
  let s = R.snapshot res in
  List.iter
    (fun owner ->
      let c = R.Snapshot.owner s owner in
      Alcotest.(check int)
        (Printf.sprintf "owner %d: integral = census" owner)
        (Hashtbl.find census owner)
        (R.Snapshot.resident_time c);
      Alcotest.(check int)
        (Printf.sprintf "owner %d: clean bins conserve" owner)
        c.R.clean_time
        (Array.fold_left ( + ) 0 c.R.clean_bins);
      Alcotest.(check int)
        (Printf.sprintf "owner %d: dirty bins conserve" owner)
        c.R.dirty_time
        (Array.fold_left ( + ) 0 c.R.dirty_bins);
      (* Every filled line eventually leaves: by eviction or by the
         end-of-run flush. *)
      Alcotest.(check int)
        (Printf.sprintf "owner %d: fills = evictions + flushes" owner)
        c.R.fills
        (c.R.evictions + c.R.flushes))
    owners;
  let t = R.Snapshot.totals s in
  Alcotest.(check int) "totals integral = census"
    (List.fold_left (fun acc o -> acc + Hashtbl.find census o) 0 owners)
    (R.Snapshot.resident_time t)

(* Conservation as a qcheck property over random traces and random bin
   counts: histogram sums equal the integrals, and the totals equal the
   per-owner sums. *)
let prop_conservation =
  QCheck.Test.make ~count:50 ~name:"residency conservation (random traces)"
    QCheck.(pair (list_of_size Gen.(1 -- 400) (triple small_nat bool small_nat))
              (1 -- 17))
    (fun (raw, bins) ->
      let n = List.length raw in
      let cache, res = timed_cache ~bins ~horizon:n tiny in
      List.iter
        (fun (a, write, o) ->
          C.Cache.access cache ~owner:(1 + (o mod 3)) ~write
            ~addr:(a * 8 mod 2048) ~size:4)
        raw;
      C.Cache.flush cache;
      let s = R.snapshot res in
      let check (c : R.counters) =
        c.R.clean_time = Array.fold_left ( + ) 0 c.R.clean_bins
        && c.R.dirty_time = Array.fold_left ( + ) 0 c.R.dirty_bins
        && c.R.fills = c.R.evictions + c.R.flushes
      in
      let per_owner_sum f =
        Array.fold_left (fun acc (_, c) -> acc + f c) 0 s.R.per_owner
      in
      check s.R.totals
      && Array.for_all (fun (_, c) -> check c) s.R.per_owner
      && R.Snapshot.resident_time s.R.totals
         = per_owner_sum R.Snapshot.resident_time
      && s.R.totals.R.fills = per_owner_sum (fun c -> c.R.fills))

(* --- clock plumbing invariance --- *)

let test_batch_matches_per_event () =
  let n = 2500 in
  let events = synthetic_events n in
  let serial_cache, serial_res = timed_cache ~horizon:n tiny in
  List.iter
    (fun (e : Mt.Event.t) ->
      C.Cache.access serial_cache ~owner:e.Mt.Event.owner
        ~write:e.Mt.Event.write ~addr:e.Mt.Event.addr ~size:e.Mt.Event.size)
    events;
  C.Cache.flush serial_cache;
  let batch_cache, batch_res = timed_cache ~horizon:n tiny in
  Mt.Tape.replay_fused (tape_of events) [| batch_cache |];
  C.Cache.flush batch_cache;
  Alcotest.(check bool) "batch replay = per-event accesses" true
    (R.snapshot batch_res = R.snapshot serial_res);
  Alcotest.(check bool) "stats agree too" true
    (C.Stats.snapshot (C.Cache.stats batch_cache)
    = C.Stats.snapshot (C.Cache.stats serial_cache))

let test_sharded_merge_identity () =
  let tape = tape_of (synthetic_events 3000) in
  let n = Mt.Tape.length tape in
  let serial_cache, serial_res = timed_cache ~horizon:n tiny in
  Mt.Tape.replay_fused tape [| serial_cache |];
  C.Cache.flush serial_cache;
  let serial = R.snapshot serial_res in
  List.iter
    (fun shards ->
      let replicas =
        Array.init shards (fun shard ->
            let cache, res = timed_cache ~horizon:n tiny in
            Mt.Tape.replay_fused_sharded tape [| cache |] ~shards ~shard;
            C.Cache.flush cache;
            (cache, res))
      in
      let merged =
        R.sum (Array.to_list (Array.map snd replicas))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards merge to the serial accumulator" shards)
        true
        (R.snapshot merged = serial);
      let merged_stats =
        C.Stats.sum
          (Array.to_list (Array.map (fun (c, _) -> C.Cache.stats c) replicas))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards: stats unchanged by residency" shards)
        true
        (C.Stats.snapshot merged_stats
        = C.Stats.snapshot (C.Cache.stats serial_cache)))
    [ 1; 2; 8 ]

(* Attaching residency must not change what the cache computes. *)
let test_stats_unchanged_by_residency () =
  let events = synthetic_events 3000 in
  let plain = C.Cache.create tiny in
  Mt.Tape.replay_fused (tape_of events) [| plain |];
  C.Cache.flush plain;
  let timed, _ = timed_cache ~horizon:(List.length events) tiny in
  Mt.Tape.replay_fused (tape_of events) [| timed |];
  C.Cache.flush timed;
  Alcotest.(check bool) "stats identical with and without residency" true
    (C.Stats.snapshot (C.Cache.stats plain)
    = C.Stats.snapshot (C.Cache.stats timed))

(* --- the residency oracle ---

   test_hierarchy's chained naive LRU records every line's phases from
   the definition alone: a phase opens at a fill, clean or dirty by the
   write bit; a clean phase closes at the first write hit; a phase
   closes at the line's eviction or, at the horizon, in the final flush
   cascade; and every level runs on the L1 event ordinal.  Each level's
   per-owner counters follow by counting: every event ordinal [u] a
   phase covers adds one line-event to the phase's integral and to bin
   [u / width], with [width = max 1 (ceil (horizon / bins))].  The
   property compares those counters, and every level's statistics, with
   [Hierarchy.access_batch] run with accumulators attached: 1-3 levels,
   random batch cuts and funnel sizes, shard replicas merged with
   [Residency.sum]. *)

let expected_counters ~bins ~horizon (r : Test_cachesim.reference) owner =
  let width = max 1 ((horizon + bins - 1) / bins) in
  let clean_bins = Array.make bins 0 and dirty_bins = Array.make bins 0 in
  let clean = ref 0 and dirty = ref 0 in
  let evictions = ref 0 and flushes = ref 0 in
  List.iter
    (fun (p : Test_cachesim.phase) ->
      if p.owner = owner then begin
        for u = p.t0 to p.t1 - 1 do
          let time, hist = if p.dirty then (dirty, dirty_bins) else (clean, clean_bins) in
          incr time;
          hist.(u / width) <- hist.(u / width) + 1
        done;
        match p.ended with
        | `Evict -> incr evictions
        | `Flush -> incr flushes
        | `Write -> ()
      end)
    r.phases;
  let fills =
    List.length
      (List.filter
         (function Test_cachesim.Fill (o, _), _ -> o = owner | _ -> false)
         r.feed)
  in
  {
    R.clean_time = !clean;
    dirty_time = !dirty;
    fills;
    evictions = !evictions;
    flushes = !flushes;
    clean_bins;
    dirty_bins;
  }

let max_owner = 5

let gen_oracle_case =
  let open QCheck.Gen in
  let* line = oneofl [ 8; 16; 32 ] in
  let* levels =
    list_size (1 -- 3) (pair (oneofl [ 1; 2; 4; 8; 16 ]) (1 -- 4))
  in
  let* shards = oneofl [ 1; 2; 4 ] in
  let* funnel = 1 -- 8 in
  let* bins = 1 -- 17 in
  let* events =
    array_size (1 -- 300)
      (quad (0 -- 2047) (1 -- 100) (0 -- max_owner) bool)
  in
  let* cuts = list_size (0 -- 6) (0 -- Array.length events) in
  return (line, levels, shards, funnel, bins, events, cuts)

let print_oracle_case (line, levels, shards, funnel, bins, events, cuts) =
  Printf.sprintf "%s, %d bins"
    (Test_hierarchy.print_chain_case (line, levels, shards, funnel, events, cuts))
    bins

let prop_residency_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"hierarchy residency = chained oracle"
    (QCheck.make ~print:print_oracle_case gen_oracle_case)
    (fun (line, levels, shards, funnel, bins, events, cuts) ->
      let configs =
        List.mapi
          (fun i (sets, associativity) ->
            C.Config.make ~name:(Printf.sprintf "L%d" (i + 1)) ~associativity
              ~sets ~line)
          levels
      in
      let depth = List.length configs in
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
            let res = Array.init depth (fun _ -> R.create ~bins ~horizon:n ()) in
            C.Hierarchy.attach_residency h res;
            let rec batches = function
              | a :: (b :: _ as rest) ->
                  C.Hierarchy.access_batch h ~events:packed ~pos:a
                    ~len:(b - a) ~shards ~shard;
                  batches rest
              | _ -> ()
            in
            batches bounds;
            C.Hierarchy.flush h;
            (h, res))
      in
      let reference = Test_hierarchy.chained_reference configs events in
      List.for_all2
        (fun level (r : Test_cachesim.reference) ->
          let snap =
            R.snapshot (R.sum (List.map (fun (_, res) -> res.(level)) replicas))
          in
          let stats =
            C.Stats.sum
              (List.map
                 (fun (h, _) -> C.Cache.stats (C.Hierarchy.level_cache h level))
                 replicas)
          in
          C.Stats.snapshot stats = C.Stats.snapshot r.stats
          && List.for_all (fun o -> o <= max_owner) (R.Snapshot.owners snap)
          && List.for_all
               (fun owner ->
                 R.Snapshot.owner snap owner
                 = expected_counters ~bins ~horizon:n r owner)
               (List.init (max_owner + 1) Fun.id))
        (List.init depth Fun.id) reference)

(* --- atomic timed batches ---

   [access_batch_timed] checks its [times] column before any state
   changes, as it checks the events: a stamp in [pos, pos + len) below
   the one before it (the cache's clock, for the first) rejects the
   whole batch.  Before the check, such a column raised from
   [Residency.record_interval] halfway through the walk, or recorded
   wrong intervals.  The rejected cache must stay indistinguishable from
   a twin that never saw the batch. *)

let test_failed_timed_batch_leaves_cache_untouched () =
  let write addr = C.Cache.pack ~owner:1 ~write:true ~addr ~size:4 in
  let read addr = C.Cache.pack ~owner:2 ~write:false ~addr ~size:4 in
  let events = [| write 0; read 64; write 128; read 0; write 64 |] in
  let cache, res = timed_cache ~horizon:10 tiny in
  let twin, twin_res = timed_cache ~horizon:10 tiny in
  let walk c ~times ~pos ~len =
    C.Cache.access_batch_timed c ~events ~times ~pos ~len ~fill:C.Cache.nofeed
      ~spill:C.Cache.nofeed
  in
  List.iter (fun c -> walk c ~times:[| 0; 1; 2 |] ~pos:0 ~len:3) [ cache; twin ];
  Alcotest.check_raises "decreasing stamp rejected"
    (Invalid_argument "Cache.access_batch_timed: stamp 3 at index 4 is below 4")
    (fun () -> walk cache ~times:[| 0; 0; 0; 4; 3 |] ~pos:3 ~len:2);
  Alcotest.check_raises "stamp below the previous batch's rejected"
    (Invalid_argument "Cache.access_batch_timed: stamp 1 at index 3 is below 2")
    (fun () -> walk cache ~times:[| 0; 0; 0; 1; 5 |] ~pos:3 ~len:2);
  expect_invalid "negative stamp rejected" (fun () ->
      walk cache ~times:[| 0; 0; 0; -1; 5 |] ~pos:3 ~len:2);
  expect_invalid "short times column rejected" (fun () ->
      walk cache ~times:[| 0; 0; 0; 4 |] ~pos:3 ~len:2);
  let same what =
    Alcotest.(check bool) what true
      (C.Stats.snapshot (C.Cache.stats cache)
       = C.Stats.snapshot (C.Cache.stats twin)
      && R.snapshot res = R.snapshot twin_res
      && C.Cache.now cache = C.Cache.now twin
      && List.for_all
           (fun owner ->
             C.Cache.resident_lines cache ~owner
             = C.Cache.resident_lines twin ~owner)
           [ 1; 2 ])
  in
  same "rejected batches change nothing";
  (* Stamps outside [pos, pos + len) are not the batch's business. *)
  List.iter (fun c -> walk c ~times:[| 9; 9; 9; 4; 5 |] ~pos:3 ~len:2) [ cache; twin ];
  List.iter
    (fun c ->
      C.Cache.set_now c 10;
      C.Cache.flush c)
    [ cache; twin ];
  (* Equal flushes mean equal tags, dirty bits and phase starts. *)
  same "then the same walk and flush as the twin"

(* --- merge / sum --- *)

let test_merge_and_sum () =
  let a = R.create ~bins:5 ~horizon:10 () in
  let b = R.create ~bins:5 ~horizon:10 () in
  R.record_interval a ~owner:1 ~dirty:false ~t0:0 ~t1:4;
  R.record_fill a ~owner:1;
  R.record_interval b ~owner:1 ~dirty:true ~t0:4 ~t1:10;
  R.record_interval b ~owner:2 ~dirty:false ~t0:2 ~t1:3;
  R.record_eviction b ~owner:1;
  let s = R.snapshot (R.sum [ a; b ]) in
  let o1 = R.Snapshot.owner s 1 in
  Alcotest.(check int) "summed clean" 4 o1.R.clean_time;
  Alcotest.(check int) "summed dirty" 6 o1.R.dirty_time;
  Alcotest.(check int) "summed fills" 1 o1.R.fills;
  Alcotest.(check int) "summed evictions" 1 o1.R.evictions;
  Alcotest.(check int) "second owner present" 1
    (R.Snapshot.resident_time (R.Snapshot.owner s 2));
  Alcotest.(check (list int)) "owners ascending" [ 1; 2 ]
    (R.Snapshot.owners s);
  expect_invalid "sum of nothing" (fun () -> ignore (R.sum []));
  expect_invalid "mismatched horizon" (fun () ->
      R.merge ~into:a (R.create ~bins:5 ~horizon:11 ()));
  expect_invalid "mismatched bins" (fun () ->
      R.merge ~into:a (R.create ~bins:4 ~horizon:10 ()));
  (* Absent owners read as zero, like Stats snapshots. *)
  Alcotest.(check int) "absent owner is zero" 0
    (R.Snapshot.resident_time (R.Snapshot.owner s 99))

(* --- timed verification rows --- *)

let test_timed_verify_widths () =
  let workloads = [ Core.Workloads.vm; Core.Workloads.mc ] in
  let serial = Core.Verify.run_all_timed ~jobs:1 ~workloads () in
  Alcotest.(check bool) "rows exist" true (serial <> []);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "-j %d = -j 1" jobs)
        true
        (Core.Verify.run_all_timed ~jobs ~workloads () = serial))
    [ 2; 16 ];
  (* Each row's windows conserve its integrals. *)
  List.iter
    (fun (r : Core.Verify.time_row) ->
      let sum = Array.fold_left ( +. ) 0.0 in
      Alcotest.(check (float 1e-6)) "window conserves residency"
        (r.Core.Verify.clean_time +. r.Core.Verify.dirty_time)
        (sum r.Core.Verify.window);
      Alcotest.(check (float 1e-6)) "dirty window conserves dirty time"
        r.Core.Verify.dirty_time
        (sum r.Core.Verify.window_dirty))
    serial;
  (* Deeper hierarchies keep the invariance. *)
  let l2 = Core.Verify.run_all_timed ~jobs:1 ~workloads ~levels:2 () in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "levels:2 -j %d = -j 1" jobs)
        true
        (Core.Verify.run_all_timed ~jobs ~workloads ~levels:2 () = l2))
    [ 2; 16 ];
  expect_invalid "bins 0 rejected" (fun () ->
      ignore (Core.Verify.run_all_timed ~jobs:1 ~workloads ~bins:0 ()))

let suite =
  [
    Alcotest.test_case "validation and clamping" `Quick test_validation;
    Alcotest.test_case "hand-computed evictions" `Quick
      test_hand_computed_evictions;
    Alcotest.test_case "hand-computed dirty transition" `Quick
      test_hand_computed_dirty_transition;
    Alcotest.test_case "integral = per-event census" `Quick
      test_conservation_census;
    QCheck_alcotest.to_alcotest prop_conservation;
    Alcotest.test_case "batch clock = per-event clock" `Quick
      test_batch_matches_per_event;
    Alcotest.test_case "sharded replicas merge to serial" `Quick
      test_sharded_merge_identity;
    Alcotest.test_case "stats unchanged by residency" `Quick
      test_stats_unchanged_by_residency;
    Alcotest.test_case "merge and sum" `Quick test_merge_and_sum;
    Alcotest.test_case "timed verify rows invariant" `Quick
      test_timed_verify_widths;
    QCheck_alcotest.to_alcotest prop_residency_matches_oracle;
    Alcotest.test_case "failed timed batch leaves cache untouched" `Quick
      test_failed_timed_batch_leaves_cache_untouched;
  ]
