module C = Cachesim

let tiny_config =
  (* 2-way, 2 sets, 16 B lines: 64 B cache, small enough to reason about
     every eviction by hand. *)
  C.Config.make ~name:"tiny" ~associativity:2 ~sets:2 ~line:16

let test_config_capacity () =
  Alcotest.(check int) "capacity" 64 (C.Config.capacity tiny_config);
  Alcotest.(check int) "blocks" 4 (C.Config.blocks tiny_config)

let test_config_validation () =
  Alcotest.check_raises "bad sets"
    (Invalid_argument "Config.make: sets must be a positive power of two (got 3)")
    (fun () -> ignore (C.Config.make ~name:"x" ~associativity:1 ~sets:3 ~line:16));
  Alcotest.check_raises "bad line"
    (Invalid_argument "Config.make: line must be a positive power of two (got 10)")
    (fun () -> ignore (C.Config.make ~name:"x" ~associativity:1 ~sets:2 ~line:10));
  Alcotest.check_raises "bad assoc"
    (Invalid_argument "Config.make: associativity must be positive (got 0)")
    (fun () -> ignore (C.Config.make ~name:"x" ~associativity:0 ~sets:2 ~line:16))

(* Regression: flooring log2 / sets-1 masking silently mis-indexed any
   non-power-of-two geometry, so every rejected shape here was once a
   wrong simulation instead of an error.  Zero and negative values must
   fail too (0 passes the [n land (n-1) = 0] bit test alone). *)
let test_config_rejects_all_bad_geometry () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  List.iter
    (fun sets ->
      expect_invalid
        (Printf.sprintf "sets=%d" sets)
        (fun () -> C.Config.make ~name:"x" ~associativity:1 ~sets ~line:16))
    [ 0; -1; 3; 6; 48; 100; 4095 ];
  List.iter
    (fun line ->
      expect_invalid
        (Printf.sprintf "line=%d" line)
        (fun () -> C.Config.make ~name:"x" ~associativity:1 ~sets:2 ~line))
    [ 0; -16; 3; 24; 48; 100 ];
  (* Non-power-of-two associativity is legal (Table IV's 1MB cache is
     6-way). *)
  ignore (C.Config.make ~name:"6-way" ~associativity:6 ~sets:2 ~line:16)

let test_is_power_of_two () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "is_power_of_two %d" n)
        expected
        (C.Config.is_power_of_two n))
    [ (1, true); (2, true); (64, true); (0, false); (-4, false); (6, false) ]

let test_stats_merge () =
  let a = C.Stats.create () in
  let b = C.Stats.create () in
  C.Stats.record_access a ~owner:1 ~write:false ~hit:false;
  C.Stats.record_access a ~owner:1 ~write:true ~hit:true;
  C.Stats.record_writeback a ~owner:1;
  C.Stats.record_access b ~owner:1 ~write:false ~hit:true;
  (* Owner 20 only exists in [b]: merge must grow the accumulator. *)
  C.Stats.record_access b ~owner:20 ~write:true ~hit:false;
  C.Stats.merge ~into:a b;
  let c1 = C.Stats.owner_counters a 1 in
  Alcotest.(check int) "reads" 2 c1.C.Stats.reads;
  Alcotest.(check int) "writes" 1 c1.C.Stats.writes;
  Alcotest.(check int) "hits" 2 c1.C.Stats.hits;
  Alcotest.(check int) "misses" 1 c1.C.Stats.misses;
  Alcotest.(check int) "writebacks" 1 c1.C.Stats.writebacks;
  let c20 = C.Stats.owner_counters a 20 in
  Alcotest.(check int) "grown owner misses" 1 c20.C.Stats.misses;
  (* [b] is untouched by the merge. *)
  Alcotest.(check int) "src untouched" 1 (C.Stats.owner_counters b 1).C.Stats.hits

let test_stats_sum_equals_combined_run () =
  (* Split one access stream across two caches; summed stats must equal
     the totals of each part combined (the parallel-sweep aggregation
     contract). *)
  let mk () = C.Cache.create tiny_config in
  let c1 = mk () and c2 = mk () in
  List.iter
    (fun (c, addr) -> C.Cache.access c ~owner:1 ~write:true ~addr ~size:4)
    [ (c1, 0); (c1, 32); (c2, 64); (c2, 96); (c2, 0) ];
  let summed = C.Stats.sum [ C.Cache.stats c1; C.Cache.stats c2 ] in
  let t = C.Stats.totals summed in
  Alcotest.(check int) "writes" 5 t.C.Stats.writes;
  Alcotest.(check int) "misses" 5 t.C.Stats.misses

let test_table_iv_presets () =
  Alcotest.(check int) "small verif 8KB" 8192
    (C.Config.capacity C.Config.small_verification);
  Alcotest.(check int) "16KB profiling" 16384
    (C.Config.capacity C.Config.profiling_16kb);
  Alcotest.(check int) "128KB profiling" 131072
    (C.Config.capacity C.Config.profiling_128kb);
  Alcotest.(check int) "768KB profiling (paper's \"1MB\")" 786432
    (C.Config.capacity C.Config.profiling_768kb);
  Alcotest.(check int) "4MB profiling (paper's \"8MB\")" 4194304
    (C.Config.capacity C.Config.profiling_4mb)

(* Regression for the mislabeled Table IV presets: the paper's "1MB" is
   really 768 KB and its "8MB" really 4 MB.  Every named config whose
   name is a byte size must render its parameter-derived capacity
   exactly, so a label can never drift from the geometry again. *)
let test_named_capacity_matches_name () =
  List.iter
    (fun (cfg : C.Config.t) ->
      let looks_like_size =
        String.length cfg.name > 2
        && (match cfg.name.[0] with '0' .. '9' -> true | _ -> false)
        && (String.length cfg.name >= 2
            && String.sub cfg.name (String.length cfg.name - 1) 1 = "B")
      in
      if looks_like_size then
        Alcotest.(check string)
          (Printf.sprintf "capacity renders as %s" cfg.name)
          cfg.name
          (Format.asprintf "%a" Dvf_util.Units.pp_bytes (C.Config.capacity cfg)))
    (C.Config.profiling_set @ C.Config.verification_set);
  (* All four profiling presets are size-named, so the check above is not
     vacuous. *)
  Alcotest.(check int) "size-named configs" 4
    (List.length
       (List.filter
          (fun (cfg : C.Config.t) ->
            match cfg.name.[0] with '0' .. '9' -> true | _ -> false)
          C.Config.profiling_set))

let test_cold_miss_then_hit () =
  let cache = C.Cache.create tiny_config in
  Alcotest.(check bool) "cold miss" false
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  Alcotest.(check bool) "hit" true
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  Alcotest.(check bool) "same line different byte" true
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:15)

let test_lru_eviction_order () =
  let cache = C.Cache.create tiny_config in
  (* Set 0 holds lines with (line mod 2 = 0): lines 0, 2, 4 (addresses 0,
     32, 64).  2-way: loading 0 then 2 then touching 0 again then loading
     4 must evict 2 (the LRU), not 0. *)
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:32);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:64);
  Alcotest.(check bool) "0 survives" true
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  Alcotest.(check bool) "32 evicted" false
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:32)

let test_set_mapping () =
  let cache = C.Cache.create tiny_config in
  (* Lines 0 and 1 (addresses 0 and 16) map to different sets and never
     conflict. *)
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:16);
  Alcotest.(check bool) "line 0 resident" true
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  Alcotest.(check bool) "line 1 resident" true
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:16)

let test_writeback_on_dirty_eviction () =
  let cache = C.Cache.create tiny_config in
  (* Dirty line 0 in set 0, then evict it with two more set-0 lines. *)
  ignore (C.Cache.touch_line cache ~owner:3 ~write:true ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:32);
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:64);
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:96);
  let c = C.Stats.owner_counters (C.Cache.stats cache) 3 in
  Alcotest.(check int) "one writeback" 1 c.C.Stats.writebacks

let test_clean_eviction_no_writeback () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:32);
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:64);
  let c = C.Stats.owner_counters (C.Cache.stats cache) 3 in
  Alcotest.(check int) "no writebacks" 0 c.C.Stats.writebacks

let test_writeback_attributed_to_line_owner () =
  let cache = C.Cache.create tiny_config in
  (* Owner 1 dirties a line; owner 2 evicts it.  The writeback belongs to
     owner 1. *)
  ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:2 ~write:false ~line_addr:32);
  ignore (C.Cache.touch_line cache ~owner:2 ~write:false ~line_addr:64);
  let s = C.Cache.stats cache in
  Alcotest.(check int) "owner 1 writeback" 1
    (C.Stats.owner_counters s 1).C.Stats.writebacks;
  Alcotest.(check int) "owner 2 none" 0
    (C.Stats.owner_counters s 2).C.Stats.writebacks

let test_access_spans_lines () =
  let cache = C.Cache.create tiny_config in
  (* A 20-byte access at address 10 touches lines 0 and 1. *)
  C.Cache.access cache ~owner:1 ~write:false ~addr:10 ~size:20;
  let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
  Alcotest.(check int) "two lookups" 2 (c.C.Stats.reads);
  Alcotest.(check int) "two misses" 2 c.C.Stats.misses

let test_flush_counts_dirty () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:16);
  C.Cache.flush cache;
  let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
  Alcotest.(check int) "one writeback from flush" 1 c.C.Stats.writebacks;
  (* After flush everything misses again. *)
  Alcotest.(check bool) "cold after flush" false
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0)

let test_invalidate_drops_silently () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:0);
  C.Cache.invalidate cache;
  let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
  Alcotest.(check int) "no writeback" 0 c.C.Stats.writebacks

let test_resident_lines () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:2 ~write:false ~line_addr:16);
  Alcotest.(check int) "owner 1" 1 (C.Cache.resident_lines cache ~owner:1);
  Alcotest.(check int) "owner 2" 1 (C.Cache.resident_lines cache ~owner:2)

let test_streaming_miss_count () =
  (* A unit-stride traverse of D bytes must miss exactly ceil(D/CL). *)
  let cache = C.Cache.create tiny_config in
  let bytes = 1000 in
  for addr = 0 to bytes - 1 do
    C.Cache.access cache ~owner:1 ~write:false ~addr ~size:1
  done;
  let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
  Alcotest.(check int) "compulsory misses" (Dvf_util.Maths.cdiv bytes 16)
    c.C.Stats.misses

let test_working_set_fits_no_capacity_misses () =
  (* 4 lines fit exactly; repeated traversal of 2 lines per set never
     misses after the first pass. *)
  let cache = C.Cache.create tiny_config in
  for _pass = 1 to 10 do
    List.iter
      (fun addr ->
        ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:addr))
      [ 0; 16; 32; 48 ]
  done;
  let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
  Alcotest.(check int) "only 4 cold misses" 4 c.C.Stats.misses

let test_stats_totals () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:5 ~write:true ~line_addr:16);
  let totals = C.Stats.totals (C.Cache.stats cache) in
  Alcotest.(check int) "reads" 1 totals.C.Stats.reads;
  Alcotest.(check int) "writes" 1 totals.C.Stats.writes;
  Alcotest.(check int) "misses" 2 totals.C.Stats.misses;
  Alcotest.(check (list int)) "owners" [ 1; 5 ]
    (C.Stats.owners (C.Cache.stats cache))

(* --- immutable snapshots --- *)

let test_snapshot_matches_live_counters () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:5 ~write:true ~line_addr:16);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  let stats = C.Cache.stats cache in
  let snap = C.Stats.snapshot stats in
  Alcotest.(check bool) "totals agree" true
    (C.Stats.Snapshot.totals snap = C.Stats.totals stats);
  Alcotest.(check (list int)) "owners agree" (C.Stats.owners stats)
    (C.Stats.Snapshot.owners snap);
  List.iter
    (fun owner ->
      Alcotest.(check bool)
        (Printf.sprintf "owner %d counters agree" owner)
        true
        (C.Stats.Snapshot.owner snap owner = C.Stats.owner_counters stats owner);
      Alcotest.(check int)
        (Printf.sprintf "owner %d main memory agrees" owner)
        (C.Stats.main_memory_accesses stats owner)
        (C.Stats.Snapshot.owner_main_memory snap owner))
    (C.Stats.owners stats);
  Alcotest.(check int) "total main memory agrees"
    (C.Stats.total_main_memory_accesses stats)
    (C.Stats.Snapshot.total_main_memory snap);
  Alcotest.(check int) "accesses = reads + writes" 3
    (C.Stats.Snapshot.accesses (C.Stats.Snapshot.totals snap))

let test_snapshot_immutable_under_later_accesses () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:0);
  let snap = C.Stats.snapshot (C.Cache.stats cache) in
  for i = 1 to 10 do
    ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:(i * 16))
  done;
  C.Cache.flush cache;
  Alcotest.(check int) "snapshot frozen at capture" 1
    (C.Stats.Snapshot.accesses (C.Stats.Snapshot.totals snap));
  Alcotest.(check int) "unknown owner is zero" 0
    (C.Stats.Snapshot.accesses (C.Stats.Snapshot.owner snap 99))

(* Property: the simulator never reports more hits than lookups, and
   misses + hits = lookups. *)
let prop_stats_consistent =
  QCheck.Test.make ~count:100 ~name:"hits + misses = lookups"
    QCheck.(list_of_size (Gen.int_range 1 500) (pair (int_range 0 2048) bool))
    (fun ops ->
      let cache = C.Cache.create tiny_config in
      List.iter
        (fun (addr, write) ->
          ignore (C.Cache.touch_line cache ~owner:1 ~write ~line_addr:addr))
        ops;
      let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
      c.C.Stats.hits + c.C.Stats.misses = c.C.Stats.reads + c.C.Stats.writes)

(* Property: an LRU cache of B blocks total hits whenever the stack
   distance is < associativity within a set; cross-check against a naive
   per-set LRU list model. *)
let prop_matches_reference_lru =
  QCheck.Test.make ~count:100 ~name:"matches reference LRU model"
    QCheck.(list_of_size (Gen.int_range 1 300) (int_range 0 1023))
    (fun line_addrs ->
      let cache = C.Cache.create tiny_config in
      let sets = Array.make 2 [] in
      let ok = ref true in
      List.iter
        (fun addr ->
          let line = addr / 16 in
          let set = line mod 2 in
          let expected_hit = List.mem line sets.(set) in
          let lru = sets.(set) in
          let without = List.filter (fun l -> l <> line) lru in
          sets.(set) <- line :: (if List.length without > 1 then [ List.hd without ] else without);
          let got = C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:(line * 16) in
          if got <> expected_hit then ok := false)
        line_addrs;
      !ok)

(* --- the packed walk against per-event references ---

   One differential property for every [Cache.access_batch] /
   [Cache.access_batch_timed] path: the specialised kernel, the generic
   residency-clocked walk, and the explicitly timed walk.  Random packed
   traces (multi-line events, many owners) are cut at random chunk
   boundaries and walked per shard into private replicas of a tiny cache
   (shard counts above the set count included).  The merged per-owner
   statistics must equal a per-event [Cache.access] loop, and each
   shard's fill/spill feed must equal, in order, the lines of that shard
   in the feed of a naive list-based LRU model. *)

type feed_event = Fill of int * int | Spill of int * int (* owner, line *)

(* Per set, resident (line, owner, dirty) most recent first.  A hit keeps
   the filling owner; a miss in a full set evicts the last entry, spilling
   it when dirty, before the new line's fill. *)
let reference_feed (cfg : C.Config.t) events =
  let sets = Array.make cfg.C.Config.sets [] in
  let feed = ref [] in
  Array.iter
    (fun (addr, size, owner, write) ->
      let line_of a = a / cfg.C.Config.line in
      for line = line_of addr to line_of (addr + size - 1) do
        let set = line land (cfg.C.Config.sets - 1) in
        let resident = sets.(set) in
        match List.find_opt (fun (l, _, _) -> l = line) resident with
        | Some (_, o, d) ->
            sets.(set) <-
              (line, o, d || write)
              :: List.filter (fun (l, _, _) -> l <> line) resident
        | None ->
            let kept =
              if List.length resident < cfg.C.Config.associativity then resident
              else begin
                let rev = List.rev resident in
                let l, o, d = List.hd rev in
                if d then feed := Spill (o, l) :: !feed;
                List.rev (List.tl rev)
              end
            in
            sets.(set) <- (line, owner, write) :: kept;
            feed := Fill (owner, line) :: !feed
      done)
    events;
  List.rev !feed

let gen_walk_case =
  let open QCheck.Gen in
  let* assoc = oneofl [ 1; 2; 4 ] in
  let* sets = oneofl [ 1; 2; 4 ] in
  let* line = oneofl [ 8; 16; 32 ] in
  let* shards = oneofl [ 1; 2; 8 ] in
  let* mode = oneofl [ `Plain; `Residency; `Timed ] in
  let* events =
    array_size (1 -- 300)
      (quad (0 -- 2047) (1 -- 100) (0 -- 40) bool)
  in
  let* cuts = list_size (0 -- 6) (0 -- Array.length events) in
  return (assoc, sets, line, shards, mode, events, cuts)

let prop_walk_matches_references =
  QCheck.Test.make ~count:300 ~name:"packed walk = per-event references"
    (QCheck.make gen_walk_case)
    (fun (assoc, sets, line, shards, mode, events, cuts) ->
      let cfg = C.Config.make ~name:"walk" ~associativity:assoc ~sets ~line in
      let n = Array.length events in
      let addrs = Array.map (fun (a, _, _, _) -> a) events in
      let metas =
        Array.map
          (fun (_, size, owner, write) ->
            C.Cache.pack_access ~owner ~write ~size)
          events
      in
      let bounds = List.sort_uniq compare ((0 :: cuts) @ [ n ]) in
      let walk_shard shard =
        let cache = C.Cache.create cfg in
        if mode = `Residency then
          C.Cache.attach_residency cache (C.Residency.create ~horizon:n ());
        let feed = ref [] in
        let fill ~owner ~line = feed := Fill (owner, line) :: !feed in
        let spill ~owner ~line = feed := Spill (owner, line) :: !feed in
        let rec chunks = function
          | a :: (b :: _ as rest) ->
              (match mode with
              | `Timed ->
                  C.Cache.access_batch_timed cache ~addrs ~metas
                    ~times:(Array.init n (fun i -> i))
                    ~pos:a ~len:(b - a) ~fill ~spill
              | `Plain | `Residency ->
                  C.Cache.access_batch cache ~addrs ~metas ~pos:a ~len:(b - a)
                    ~shards ~shard ~fill ~spill);
              chunks rest
          | _ -> ()
        in
        chunks bounds;
        (C.Cache.stats cache, List.rev !feed)
      in
      (* The timed walk is unsharded. *)
      let shards = if mode = `Timed then 1 else shards in
      let per_shard = List.init shards walk_shard in
      let direct = C.Cache.create cfg in
      Array.iter
        (fun (addr, size, owner, write) ->
          C.Cache.access direct ~owner ~write ~addr ~size)
        events;
      let reference = reference_feed cfg events in
      let eff = min shards sets in
      let line_of = function Fill (_, l) | Spill (_, l) -> l in
      C.Stats.snapshot (C.Stats.sum (List.map fst per_shard))
      = C.Stats.snapshot (C.Cache.stats direct)
      && List.for_all2
           (fun shard (_, feed) ->
             feed
             = List.filter
                 (fun e -> shard < eff && line_of e land (eff - 1) = shard)
                 reference)
           (List.init shards Fun.id) per_shard)

let suite =
  [
    Alcotest.test_case "config capacity" `Quick test_config_capacity;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config rejects all bad geometry" `Quick
      test_config_rejects_all_bad_geometry;
    Alcotest.test_case "is_power_of_two" `Quick test_is_power_of_two;
    Alcotest.test_case "stats merge" `Quick test_stats_merge;
    Alcotest.test_case "stats sum equals combined run" `Quick
      test_stats_sum_equals_combined_run;
    Alcotest.test_case "Table IV presets" `Quick test_table_iv_presets;
    Alcotest.test_case "named capacities match names" `Quick
      test_named_capacity_matches_name;
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "set mapping" `Quick test_set_mapping;
    Alcotest.test_case "writeback on dirty eviction" `Quick
      test_writeback_on_dirty_eviction;
    Alcotest.test_case "clean eviction no writeback" `Quick
      test_clean_eviction_no_writeback;
    Alcotest.test_case "writeback attribution" `Quick
      test_writeback_attributed_to_line_owner;
    Alcotest.test_case "access spans lines" `Quick test_access_spans_lines;
    Alcotest.test_case "flush counts dirty lines" `Quick
      test_flush_counts_dirty;
    Alcotest.test_case "invalidate drops silently" `Quick
      test_invalidate_drops_silently;
    Alcotest.test_case "resident lines" `Quick test_resident_lines;
    Alcotest.test_case "streaming miss count" `Quick test_streaming_miss_count;
    Alcotest.test_case "no capacity misses when fits" `Quick
      test_working_set_fits_no_capacity_misses;
    Alcotest.test_case "stats totals" `Quick test_stats_totals;
    Alcotest.test_case "snapshot matches live counters" `Quick
      test_snapshot_matches_live_counters;
    Alcotest.test_case "snapshot immutable" `Quick
      test_snapshot_immutable_under_later_accesses;
    QCheck_alcotest.to_alcotest prop_stats_consistent;
    QCheck_alcotest.to_alcotest prop_matches_reference_lru;
    QCheck_alcotest.to_alcotest prop_walk_matches_references;
  ]
