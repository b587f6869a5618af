(* Memtrace.Tape: capture-once/replay-many correctness.

   The tentpole invariant is bit-identity: replaying a captured tape into
   a cache must leave statistics identical to tracing the workload
   straight into that cache — for every builtin workload, every
   verification geometry, any chunking, and fused multi-cache walks. *)

module C = Cachesim
module Mt = Memtrace

let snap cache = C.Stats.snapshot (C.Cache.stats cache)

let check_snapshots name (a : C.Stats.snapshot) (b : C.Stats.snapshot) =
  Alcotest.(check bool) name true (a = b)

(* Deterministic synthetic event stream mixing owners, strides, sizes and
   line-crossing accesses. *)
let synthetic_events n =
  List.init n (fun i ->
      let owner = 1 + (i mod 3) in
      let addr = (i * 24 mod 4096) + (i mod 7 * 4096) in
      let size = 1 + (i mod 9) in
      if i mod 4 = 0 then Mt.Event.write ~owner ~addr ~size
      else Mt.Event.read ~owner ~addr ~size)

let drive_direct cfg events =
  let cache = C.Cache.create cfg in
  List.iter
    (fun (e : Mt.Event.t) ->
      C.Cache.access cache ~owner:e.Mt.Event.owner ~write:e.Mt.Event.write
        ~addr:e.Mt.Event.addr ~size:e.Mt.Event.size)
    events;
  C.Cache.flush cache;
  snap cache

let drive_tape ?chunk_events cfg events =
  let tape = Mt.Tape.create ?chunk_events () in
  List.iter (Mt.Tape.append tape) events;
  let cache = C.Cache.create cfg in
  Mt.Tape.replay_fused tape [| cache |];
  C.Cache.flush cache;
  (tape, snap cache)

(* --- packed event words --- *)

let test_pack_roundtrip () =
  List.iter
    (fun (owner, write, size) ->
      let meta = C.Cache.pack_access ~owner ~write ~size in
      Alcotest.(check (triple int bool int))
        (Printf.sprintf "owner=%d write=%b size=%d" owner write size)
        (owner, write, size)
        (C.Cache.unpack_access meta))
    [
      (0, false, 1); (0, true, 1); (1, false, 64); (7, true, 4096);
      (0, false, (1 lsl 30) - 1); (max_int lsr 31, true, 17);
    ]

let test_pack_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "size 0" (fun () ->
      C.Cache.pack_access ~owner:0 ~write:false ~size:0);
  expect_invalid "size too big" (fun () ->
      C.Cache.pack_access ~owner:0 ~write:false ~size:(1 lsl 30));
  expect_invalid "negative owner" (fun () ->
      C.Cache.pack_access ~owner:(-1) ~write:false ~size:1);
  expect_invalid "owner too big" (fun () ->
      C.Cache.pack_access ~owner:((max_int lsr 31) + 1) ~write:false ~size:1)

(* --- Cache.access_batch equals per-event Cache.access --- *)

let test_access_batch_equivalence () =
  let events = synthetic_events 2000 in
  let cfg = C.Config.small_verification in
  let direct = drive_direct cfg events in
  let n = List.length events in
  let addrs = Array.make n 0 and metas = Array.make n 0 in
  List.iteri
    (fun i (e : Mt.Event.t) ->
      addrs.(i) <- e.Mt.Event.addr;
      metas.(i) <-
        C.Cache.pack_access ~owner:e.Mt.Event.owner ~write:e.Mt.Event.write
          ~size:e.Mt.Event.size)
    events;
  let batched = C.Cache.create cfg in
  let walk ~pos ~len =
    C.Cache.access_batch batched ~addrs ~metas ~pos ~len ~shards:1 ~shard:0
      ~fill:C.Cache.nofeed ~spill:C.Cache.nofeed
  in
  (* Split the stream at an arbitrary boundary: two batch calls must
     behave exactly like one. *)
  walk ~pos:0 ~len:777;
  walk ~pos:777 ~len:(n - 777);
  C.Cache.flush batched;
  check_snapshots "access_batch = access" direct (snap batched)

let test_access_batch_bad_range () =
  let cache = C.Cache.create C.Config.small_verification in
  let addrs = Array.make 4 0 and metas = Array.make 4 0 in
  let walk ?(metas = metas) ~pos ~len () =
    C.Cache.access_batch cache ~addrs ~metas ~pos ~len ~shards:1 ~shard:0
      ~fill:C.Cache.nofeed ~spill:C.Cache.nofeed
  in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "len past end" (walk ~pos:2 ~len:3);
  expect_invalid "negative pos" (walk ~pos:(-1) ~len:1);
  expect_invalid "negative len" (walk ~pos:0 ~len:(-1));
  expect_invalid "mismatched metas" (walk ~metas:(Array.make 2 0) ~pos:0 ~len:3)

(* --- chunk-boundary edge cases --- *)

let test_empty_tape () =
  let tape = Mt.Tape.create ~chunk_events:8 () in
  Alcotest.(check int) "length" 0 (Mt.Tape.length tape);
  Alcotest.(check int) "chunks" 0 (Mt.Tape.chunk_count tape);
  Alcotest.(check int) "to_list" 0 (List.length (Mt.Tape.to_list tape));
  let cache = C.Cache.create C.Config.small_verification in
  Mt.Tape.replay_fused tape [| cache |];
  Alcotest.(check int) "no accesses" 0
    (C.Stats.Snapshot.accesses (C.Stats.Snapshot.totals (snap cache)))

let test_exactly_one_chunk () =
  let events = synthetic_events 64 in
  let cfg = C.Config.small_verification in
  let tape, replayed = drive_tape ~chunk_events:64 cfg events in
  Alcotest.(check int) "length" 64 (Mt.Tape.length tape);
  Alcotest.(check int) "one chunk" 1 (Mt.Tape.chunk_count tape);
  check_snapshots "replay = direct" (drive_direct cfg events) replayed

let test_capacity_plus_one () =
  let events = synthetic_events 65 in
  let cfg = C.Config.small_verification in
  let tape, replayed = drive_tape ~chunk_events:64 cfg events in
  Alcotest.(check int) "length" 65 (Mt.Tape.length tape);
  Alcotest.(check int) "two chunks" 2 (Mt.Tape.chunk_count tape);
  check_snapshots "replay = direct" (drive_direct cfg events) replayed;
  (* Decoding across the chunk boundary preserves order and values. *)
  Alcotest.(check bool) "to_list roundtrip" true
    (List.for_all2 Mt.Event.equal events (Mt.Tape.to_list tape))

let test_chunking_invariance () =
  (* The same stream chunked three ways replays identically. *)
  let events = synthetic_events 500 in
  let cfg = C.Config.small_verification in
  let _, s1 = drive_tape ~chunk_events:1 cfg events in
  let _, s7 = drive_tape ~chunk_events:7 cfg events in
  let _, s10000 = drive_tape ~chunk_events:10000 cfg events in
  check_snapshots "chunk 1 = chunk 7" s1 s7;
  check_snapshots "chunk 7 = chunk 10000" s7 s10000

let test_append_validation () =
  let tape = Mt.Tape.create () in
  Alcotest.check_raises "negative address"
    (Invalid_argument "Tape.append: negative address") (fun () ->
      Mt.Tape.append tape (Mt.Event.read ~owner:0 ~addr:(-1) ~size:4));
  Alcotest.check_raises "bad chunk capacity"
    (Invalid_argument "Tape.create: chunk_events must be positive (got 0)")
    (fun () -> ignore (Mt.Tape.create ~chunk_events:0 ()))

(* --- bulk append (capture fast path) --- *)

let test_append_batch_equals_append () =
  let events = Array.of_list (synthetic_events 37) in
  let one_by_one = Mt.Tape.create ~chunk_events:8 () in
  Array.iter (Mt.Tape.append one_by_one) events;
  (* One bulk call crossing four chunk boundaries, and two split calls
     with the second starting mid-chunk: all three tapes must agree. *)
  let bulk = Mt.Tape.create ~chunk_events:8 () in
  Mt.Tape.append_batch bulk events (Array.length events);
  let split = Mt.Tape.create ~chunk_events:8 () in
  Mt.Tape.append_batch split (Array.sub events 0 11) 11;
  Mt.Tape.append_batch split (Array.sub events 11 26) 26;
  List.iter
    (fun (name, tape) ->
      Alcotest.(check int) (name ^ " length") 37 (Mt.Tape.length tape);
      Alcotest.(check int) (name ^ " chunks") 5 (Mt.Tape.chunk_count tape);
      Alcotest.(check bool) (name ^ " events") true
        (List.for_all2 Mt.Event.equal
           (Mt.Tape.to_list one_by_one)
           (Mt.Tape.to_list tape)))
    [ ("bulk", bulk); ("split", split) ];
  (* A batch can also consume a prefix of its array. *)
  let prefix = Mt.Tape.create ~chunk_events:8 () in
  Mt.Tape.append_batch prefix events 5;
  Alcotest.(check int) "prefix length" 5 (Mt.Tape.length prefix)

let test_append_batch_validation_is_atomic () =
  let tape = Mt.Tape.create ~chunk_events:8 () in
  let good = Array.of_list (synthetic_events 5) in
  Mt.Tape.append_batch tape good 5;
  let expect_untouched name f =
    (match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: expected Invalid_argument" name);
    (* Up-front validation: nothing before the bad index was recorded. *)
    Alcotest.(check int) (name ^ ": length untouched") 5 (Mt.Tape.length tape);
    Alcotest.(check bool) (name ^ ": events untouched") true
      (List.for_all2 Mt.Event.equal (Array.to_list good) (Mt.Tape.to_list tape))
  in
  let with_bad_event e =
    let events = Array.of_list (synthetic_events 12) in
    events.(7) <- e;
    fun () -> Mt.Tape.append_batch tape events 12
  in
  expect_untouched "negative address mid-batch"
    (with_bad_event (Mt.Event.read ~owner:1 ~addr:(-4) ~size:4));
  expect_untouched "zero size mid-batch"
    (with_bad_event { Mt.Event.owner = 1; write = false; addr = 0; size = 0 });
  expect_untouched "negative owner mid-batch"
    (with_bad_event (Mt.Event.read ~owner:(-1) ~addr:0 ~size:4));
  expect_untouched "count past end" (fun () -> Mt.Tape.append_batch tape good 6);
  expect_untouched "negative count" (fun () ->
      Mt.Tape.append_batch tape good (-1))

(* Chunk accounting is tracked incrementally (recomputing it per append
   used to make telemetry sampling quadratic); it must stay consistent
   with the chunked layout at every single length. *)
let test_chunk_accounting_incremental () =
  let tape = Mt.Tape.create ~chunk_events:8 () in
  Alcotest.(check int) "empty chunk count" 0 (Mt.Tape.chunk_count tape);
  Alcotest.(check int) "empty tape still holds one chunk"
    (8 * Mt.Tape.bytes_per_event)
    (Mt.Tape.allocated_bytes tape);
  List.iteri
    (fun i e ->
      Mt.Tape.append tape e;
      let n = i + 1 in
      let chunks = Dvf_util.Maths.cdiv n 8 in
      Alcotest.(check int) (Printf.sprintf "chunks at %d" n) chunks
        (Mt.Tape.chunk_count tape);
      Alcotest.(check int)
        (Printf.sprintf "bytes at %d" n)
        (chunks * 8 * Mt.Tape.bytes_per_event)
        (Mt.Tape.allocated_bytes tape))
    (synthetic_events 40)

(* --- fused multi-cache replay --- *)

let test_fused_equals_sequential () =
  let events = synthetic_events 3000 in
  let tape = Mt.Tape.create ~chunk_events:256 () in
  List.iter (Mt.Tape.append tape) events;
  let caches = Array.of_list (List.map C.Cache.create C.Config.verification_set) in
  Mt.Tape.replay_fused tape caches;
  Array.iter C.Cache.flush caches;
  List.iteri
    (fun i cfg ->
      let sequential = C.Cache.create cfg in
      Mt.Tape.replay_fused tape [| sequential |];
      C.Cache.flush sequential;
      check_snapshots
        (Printf.sprintf "fused = sequential on %s" cfg.C.Config.name)
        (snap sequential) (snap caches.(i)))
    C.Config.verification_set

(* --- capture -> replay bit-identity on every builtin workload --- *)

let capture_instance (instance : Core.Workload.instance) =
  let registry = Mt.Region.create () in
  let recorder = Mt.Recorder.buffered () in
  let tape = Mt.Tape.create () in
  ignore (Mt.Recorder.add_batch_sink recorder (Mt.Tape.batch_sink tape));
  instance.Core.Workload.trace registry recorder;
  Mt.Recorder.flush recorder;
  tape

let direct_instance (instance : Core.Workload.instance) cfg =
  let registry = Mt.Region.create () in
  let recorder = Mt.Recorder.buffered () in
  let cache = C.Cache.create cfg in
  ignore (Mt.Recorder.add_batch_sink recorder (Mt.Recorder.cache_batch_sink cache));
  instance.Core.Workload.trace registry recorder;
  Mt.Recorder.flush recorder;
  C.Cache.flush cache;
  snap cache

let test_workload_bit_identity () =
  List.iter
    (fun workload ->
      let instance = Core.Workloads.verification_instance workload in
      let tape = capture_instance instance in
      Alcotest.(check bool)
        (Printf.sprintf "%s captured something" instance.Core.Workload.workload)
        true
        (Mt.Tape.length tape > 0);
      List.iter
        (fun cfg ->
          let replayed = C.Cache.create cfg in
          Mt.Tape.replay_fused tape [| replayed |];
          C.Cache.flush replayed;
          check_snapshots
            (Printf.sprintf "%s on %s" instance.Core.Workload.workload
               cfg.C.Config.name)
            (direct_instance instance cfg)
            (snap replayed))
        C.Config.verification_set)
    (Core.Workloads.all ())

(* --- pre-partitioned shard views --- *)

let test_partition_views_bit_identity () =
  (* Every workload, shards 1/2/8: replaying each shard's view — in
     shard order into one shared replica set — must be bit-identical to
     the fused full scan. *)
  let caches () =
    Array.of_list (List.map C.Cache.create C.Config.verification_set)
  in
  List.iter
    (fun workload ->
      let instance = Core.Workloads.verification_instance workload in
      let name = instance.Core.Workload.workload in
      let tape = capture_instance instance in
      let fused = caches () in
      Mt.Tape.replay_fused tape fused;
      Array.iter C.Cache.flush fused;
      List.iter
        (fun shards ->
          let views = Mt.Tape.partition tape (caches ()) ~shards in
          Alcotest.(check int)
            (Printf.sprintf "%s -j%d: one view per shard" name shards)
            shards (Array.length views);
          let replicas = caches () in
          Array.iteri
            (fun shard view ->
              Alcotest.(check int) "view shard" shard (Mt.Tape.view_shard view);
              Alcotest.(check int) "view shards" shards
                (Mt.Tape.view_shards view);
              Alcotest.(check int)
                (Printf.sprintf
                   "%s -j%d shard %d: walked + skipped covers the tape" name
                   shards shard)
                (Mt.Tape.chunk_count tape)
                (Mt.Tape.view_chunks view + Mt.Tape.view_chunks_skipped view);
              Mt.Tape.replay_view view replicas)
            views;
          Array.iter C.Cache.flush replicas;
          Array.iteri
            (fun i f ->
              check_snapshots
                (Printf.sprintf "%s: partitioned -j%d = fused (cache %d)" name
                   shards i)
                (snap f)
                (snap replicas.(i)))
            fused)
        [ 1; 2; 8 ])
    (Core.Workloads.all ())

let test_partition_skips_disjoint_chunks () =
  (* 8-byte lines make the granule line equal the cache line, so a chunk
     touching only even granule lines provably holds nothing for the odd
     shard of two — the index must skip it, and skipping must not change
     a single statistic. *)
  let cfg = C.Config.make ~name:"strided" ~associativity:2 ~sets:64 ~line:8 in
  let chunk_events = 16 in
  let tape = Mt.Tape.create ~chunk_events () in
  for chunk = 0 to 3 do
    for i = 0 to chunk_events - 1 do
      let line = (2 * i) + (chunk land 1) in
      Mt.Tape.append tape (Mt.Event.read ~owner:1 ~addr:(line * 8) ~size:4)
    done
  done;
  Alcotest.(check int) "four chunks" 4 (Mt.Tape.chunk_count tape);
  let caches () = [| C.Cache.create cfg |] in
  let fused = caches () in
  Mt.Tape.replay_fused tape fused;
  Array.iter C.Cache.flush fused;
  (* The on-the-fly sharded walk skips the foreign chunks... *)
  let sharded = caches () in
  let skipped = ref 0 in
  for shard = 0 to 1 do
    Mt.Tape.replay_fused_sharded ~skipped tape sharded ~shards:2 ~shard
  done;
  Array.iter C.Cache.flush sharded;
  Alcotest.(check int) "each shard skips its two foreign chunks" 4 !skipped;
  check_snapshots "sharded with skipping = fused" (snap fused.(0))
    (snap sharded.(0));
  (* ...and the pre-partitioned views exclude exactly the same chunks. *)
  let views = Mt.Tape.partition tape (caches ()) ~shards:2 in
  let replicas = caches () in
  Array.iter
    (fun view ->
      Alcotest.(check int) "view walks its two chunks" 2
        (Mt.Tape.view_chunks view);
      Alcotest.(check int) "view skips the two foreign chunks" 2
        (Mt.Tape.view_chunks_skipped view);
      Alcotest.(check int) "view events" (2 * chunk_events)
        (Mt.Tape.view_events view);
      Mt.Tape.replay_view view replicas)
    views;
  Array.iter C.Cache.flush replicas;
  check_snapshots "views = fused" (snap fused.(0)) (snap replicas.(0))

let test_partition_validation () =
  let cfg = C.Config.make ~name:"v8" ~associativity:2 ~sets:64 ~line:8 in
  let tape = Mt.Tape.create ~chunk_events:16 () in
  List.iter (Mt.Tape.append tape) (synthetic_events 64);
  (match Mt.Tape.partition tape [| C.Cache.create cfg |] ~shards:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-power-of-two shard count must be rejected");
  (* A view replayed into replicas of a different geometry must refuse
     rather than silently drop or duplicate lines. *)
  let views = Mt.Tape.partition tape [| C.Cache.create cfg |] ~shards:2 in
  match
    Mt.Tape.replay_view views.(0)
      [| C.Cache.create C.Config.small_verification |]
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "mismatched replica geometry must be rejected"

(* --- Verify rows: every width agrees with the retrace oracle --- *)

let test_verify_widths_match_oracle () =
  let workloads = [ Core.Workloads.vm; Core.Workloads.mc ] in
  (* The independent reference: each kernel traced straight into each
     cache, no tape and no sharding. *)
  let oracle =
    List.concat_map
      (fun w ->
        let instance = Core.Workloads.verification_instance w in
        List.concat_map
          (fun cache -> Core.Verify.verify_instance ~cache instance)
          C.Config.verification_set)
      workloads
  in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "run_all -j %d = verify_instance" jobs)
        true
        (Core.Verify.run_all ~jobs ~workloads () = oracle))
    [ 1; 2; 16 ];
  let cap =
    Core.Verify.capture (Core.Workloads.verification_instance Core.Workloads.vm)
  in
  Alcotest.(check bool) "capture_rows = verify_instance slice" true
    (Core.Verify.capture_rows cap
    = List.filter (fun (r : Core.Verify.row) -> r.Core.Verify.workload = "VM")
        oracle)

(* --- simulated cache sweep --- *)

let test_sweep_simulate () =
  let instance = Core.Workloads.verification_instance Core.Workloads.vm in
  let capacities = [ 8192; 65536 ] in
  let rows =
    Core.Experiments.cache_sweep ~jobs:1 ~capacities ~simulate:true instance
  in
  let parallel =
    Core.Experiments.cache_sweep ~jobs:4 ~capacities ~simulate:true instance
  in
  Alcotest.(check bool) "sweep -j4 = -j1" true (rows = parallel);
  List.iter
    (fun (r : Core.Experiments.sweep_row) ->
      match r.Core.Experiments.sim_n_ha with
      | None -> Alcotest.failf "missing sim_n_ha at %d" r.Core.Experiments.capacity
      | Some sim ->
          (* The fused sweep replay must agree exactly with tracing the
             workload directly into the same geometry. *)
          let direct = direct_instance instance r.Core.Experiments.sweep_cache in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "sim_n_ha at %d" r.Core.Experiments.capacity)
            (float_of_int (C.Stats.Snapshot.total_main_memory direct))
            sim)
    rows;
  (* Without [simulate] the column stays empty. *)
  let plain = Core.Experiments.cache_sweep ~jobs:1 ~capacities instance in
  Alcotest.(check bool) "no sim column" true
    (List.for_all
       (fun (r : Core.Experiments.sweep_row) ->
         r.Core.Experiments.sim_n_ha = None)
       plain)

let suite =
  [
    Alcotest.test_case "pack/unpack roundtrip" `Quick test_pack_roundtrip;
    Alcotest.test_case "pack validation" `Quick test_pack_validation;
    Alcotest.test_case "access_batch = access" `Quick
      test_access_batch_equivalence;
    Alcotest.test_case "access_batch bad range" `Quick
      test_access_batch_bad_range;
    Alcotest.test_case "empty tape" `Quick test_empty_tape;
    Alcotest.test_case "exactly one chunk" `Quick test_exactly_one_chunk;
    Alcotest.test_case "capacity + 1" `Quick test_capacity_plus_one;
    Alcotest.test_case "chunking invariance" `Quick test_chunking_invariance;
    Alcotest.test_case "append validation" `Quick test_append_validation;
    Alcotest.test_case "append_batch = append" `Quick
      test_append_batch_equals_append;
    Alcotest.test_case "append_batch validation is atomic" `Quick
      test_append_batch_validation_is_atomic;
    Alcotest.test_case "chunk accounting incremental" `Quick
      test_chunk_accounting_incremental;
    Alcotest.test_case "fused = sequential" `Quick test_fused_equals_sequential;
    Alcotest.test_case "capture/replay bit-identity (all workloads)" `Quick
      test_workload_bit_identity;
    Alcotest.test_case "partitioned views bit-identity (all workloads)" `Quick
      test_partition_views_bit_identity;
    Alcotest.test_case "partition skips disjoint chunks" `Quick
      test_partition_skips_disjoint_chunks;
    Alcotest.test_case "partition validation" `Quick test_partition_validation;
    Alcotest.test_case "verify widths = verify_instance" `Quick
      test_verify_widths_match_oracle;
    Alcotest.test_case "simulated sweep" `Quick test_sweep_simulate;
  ]
