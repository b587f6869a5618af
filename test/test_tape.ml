(* Memtrace.Tape: capture-once/replay-many correctness.

   The tentpole invariant is bit-identity: the packed replay of a
   captured tape into a cache must leave statistics identical to feeding
   the same events one [Cache.access] at a time — for every builtin
   workload, every verification geometry, any chunking, and fused
   multi-cache walks. *)

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
  let tape = Fixtures.tape_of_events ?chunk_events events in
  let cache = C.Cache.create cfg in
  Mt.Tape.replay_fused tape [| cache |];
  C.Cache.flush cache;
  (tape, snap cache)

(* --- packed event words --- *)

let test_pack_roundtrip () =
  List.iter
    (fun (owner, write, addr, size) ->
      let w = C.Cache.pack ~owner ~write ~addr ~size in
      let name =
        Printf.sprintf "owner=%d write=%b addr=%d size=%d" owner write addr
          size
      in
      Alcotest.(check bool) (name ^ ": non-negative") true (w >= 0);
      Alcotest.(check (pair (pair int bool) (pair int int)))
        name
        ((owner, write), (addr, size))
        ( (C.Cache.event_owner w, C.Cache.event_write w),
          (C.Cache.event_addr w, C.Cache.event_size w) ))
    C.Cache.
      [
        (0, false, 0, 1); (0, true, 0, 1); (1, false, 4096, 64);
        (7, true, 1 lsl 30, 4096); (0, false, 0, max_size);
        (max_owner, true, max_addr - 16, 17); (3, false, max_addr, 1);
        (max_owner, true, max_addr - max_size + 1, max_size);
      ]

let test_pack_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let pack ?(owner = 0) ?(addr = 0) size () =
    ignore (C.Cache.pack ~owner ~write:false ~addr ~size)
  in
  expect_invalid "size 0" (pack 0);
  expect_invalid "size max_size + 1" (pack (C.Cache.max_size + 1));
  expect_invalid "negative owner" (pack ~owner:(-1) 1);
  expect_invalid "owner max_owner + 1" (pack ~owner:(C.Cache.max_owner + 1) 1);
  expect_invalid "negative address" (pack ~addr:(-1) 1);
  expect_invalid "address max_addr + 1" (pack ~addr:(C.Cache.max_addr + 1) 1);
  expect_invalid "last byte past max_addr" (pack ~addr:C.Cache.max_addr 2)

(* --- Cache.access_batch equals per-event Cache.access --- *)

let test_access_batch_equivalence () =
  let events = synthetic_events 2000 in
  let cfg = C.Config.small_verification in
  let direct = drive_direct cfg events in
  let n = List.length events in
  let packed =
    Array.of_list
      (List.map
         (fun (e : Mt.Event.t) ->
           C.Cache.pack ~owner:e.Mt.Event.owner ~write:e.Mt.Event.write
             ~addr:e.Mt.Event.addr ~size:e.Mt.Event.size)
         events)
  in
  let batched = C.Cache.create cfg in
  let walk ~pos ~len =
    C.Cache.access_batch batched ~events:packed ~pos ~len ~shards:1 ~shard:0
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
  let word = C.Cache.pack ~owner:1 ~write:false ~addr:64 ~size:4 in
  let walk ?(events = Array.make 4 word) ~pos ~len () =
    C.Cache.access_batch cache ~events ~pos ~len ~shards:1 ~shard:0
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
  (* Words no [pack] call returns: negative, size 0, and the last byte
     past [max_addr] (the fields of two valid words or-ed together). *)
  let past_end =
    C.Cache.pack ~owner:0 ~write:false ~addr:C.Cache.max_addr ~size:1
    lor C.Cache.pack ~owner:0 ~write:false ~addr:0 ~size:2
  in
  List.iter
    (fun (name, bad) ->
      expect_invalid name (walk ~events:[| word; bad |] ~pos:0 ~len:2))
    [ ("negative word", -1); ("size 0", 0); ("bytes past max_addr", past_end) ];
  walk ~pos:0 ~len:4 ();
  Alcotest.(check int) "no rejected batch was walked" 4
    (C.Stats.Snapshot.accesses (C.Stats.Snapshot.totals (snap cache)))

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
      Mt.Tape.append tape ~owner:0 ~write:false ~addr:(-1) ~size:4);
  Alcotest.check_raises "bad chunk capacity"
    (Invalid_argument "Tape.create: chunk_events must be positive (got 0)")
    (fun () -> ignore (Mt.Tape.create ~chunk_events:0 ()))

(* A rejected event must leave the tape exactly as it was — in
   particular a full head chunk is not retired (and a fresh one not
   allocated) for an event that is then refused. *)
let test_rejected_append_leaves_tape_unchanged () =
  let bad =
    C.Cache.
      [
        ("size 0", (1, 0, 0)); ("size max_size + 1", (1, 0, max_size + 1));
        ("owner -1", (-1, 0, 4)); ("owner max_owner + 1", (max_owner + 1, 0, 4));
        ("addr -1", (1, -1, 4)); ("addr max_addr + 1", (1, max_addr + 1, 4));
      ]
  in
  List.iter
    (fun (head, good) ->
      let tape =
        Fixtures.tape_of_events ~chunk_events:8 (synthetic_events good)
      in
      let length = Mt.Tape.length tape
      and chunks = Mt.Tape.chunk_count tape
      and bytes = Mt.Tape.allocated_bytes tape
      and events = Mt.Tape.to_list tape in
      List.iter
        (fun (name, (owner, addr, size)) ->
          let name = Printf.sprintf "%s on %s head" name head in
          (match Mt.Tape.append tape ~owner ~write:true ~addr ~size with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.failf "%s: expected Invalid_argument" name);
          Alcotest.(check int) (name ^ ": length") length (Mt.Tape.length tape);
          Alcotest.(check int) (name ^ ": chunk_count") chunks
            (Mt.Tape.chunk_count tape);
          Alcotest.(check int) (name ^ ": allocated_bytes") bytes
            (Mt.Tape.allocated_bytes tape);
          Alcotest.(check bool) (name ^ ": to_list") true
            (List.for_all2 Mt.Event.equal events (Mt.Tape.to_list tape)))
        bad)
    [ ("empty", 0); ("full", 8) ]

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
      Fixtures.append_event tape e;
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
  let tape = Fixtures.tape_of_events ~chunk_events:256 events in
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

let capture_instance instance = (Core.Verify.capture instance).Core.Verify.tape

(* The per-event reference: the tape's decoded events, one
   [Cache.access] each — independent of the packed walk. *)
let per_event tape cfg =
  let cache = C.Cache.create cfg in
  Mt.Tape.iter tape (fun (e : Mt.Event.t) ->
      C.Cache.access cache ~owner:e.owner ~write:e.write ~addr:e.addr
        ~size:e.size);
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
            (per_event tape cfg)
            (snap replayed))
        C.Config.verification_set)
    (Core.Workloads.all ())

(* --- capture output pinned to committed digests ---

   golden/tape_digests.txt holds, per verification workload, the event
   count and a digest of the captured events — every event's address
   and its metadata word in the two-word layout the tapes used to store
   ([meta_word] below), as little-endian int64s, digested in blocks of
   4096 events and then digested again over the block digests.  That
   depends only on the event stream, not on chunking, on the in-memory
   word or on the .dvftape format, so any change in what capture
   records fails here. *)

(* The digests' metadata word, re-derived from the decoded fields:
   bit 0 the write flag, bits 1..30 the size, the owner above. *)
let meta_word w =
  (C.Cache.event_owner w lsl 31)
  lor (C.Cache.event_size w lsl 1)
  lor Bool.to_int (C.Cache.event_write w)

let payload_digest tape =
  let block = Bytes.create (16 * 4096) and fill = ref 0 in
  let digests = Buffer.create 4096 in
  let flush () =
    Buffer.add_string digests (Digest.subbytes block 0 !fill);
    fill := 0
  in
  Mt.Tape.fold_chunks tape ~init:() ~f:(fun () ~events ~len ->
      for i = 0 to len - 1 do
        Bytes.set_int64_le block !fill
          (Int64.of_int (C.Cache.event_addr events.(i)));
        Bytes.set_int64_le block (!fill + 8) (Int64.of_int (meta_word events.(i)));
        fill := !fill + 16;
        if !fill = Bytes.length block then flush ()
      done);
  if !fill > 0 then flush ();
  Digest.to_hex (Digest.string (Buffer.contents digests))

let test_capture_digests_golden () =
  let golden =
    In_channel.with_open_text "golden/tape_digests.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let captured =
    List.map
      (fun workload ->
        let instance = Core.Workloads.verification_instance workload in
        let tape = capture_instance instance in
        Printf.sprintf "%s %d %s" instance.Core.Workload.workload
          (Mt.Tape.length tape) (payload_digest tape))
      Core.Workloads.[ vm; cg; nb; mg; ft; mc ]
  in
  Alcotest.(check (list string)) "capture digests" golden captured

(* --- per-shard views --- *)

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
              Alcotest.(check int)
                (Printf.sprintf "%s -j%d shard %d: walks every chunk" name
                   shards shard)
                (Mt.Tape.chunk_count tape)
                (Mt.Tape.view_chunks view);
              Alcotest.(check int) "skips nothing" 0
                (Mt.Tape.view_chunks_skipped view);
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

let test_partition_validation () =
  let cfg = C.Config.make ~name:"v8" ~associativity:2 ~sets:64 ~line:8 in
  let tape = Fixtures.tape_of_events ~chunk_events:16 (synthetic_events 64) in
  (match Mt.Tape.partition tape [| C.Cache.create cfg |] ~shards:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-power-of-two shard count must be rejected");
  match Mt.Tape.view tape ~shards:2 ~shard:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shard out of range must be rejected"

(* --- Verify rows: every width agrees with the retrace oracle --- *)

let test_verify_widths_match_oracle () =
  let workloads = [ Core.Workloads.vm; Core.Workloads.mc ] in
  (* The independent reference: each kernel's capture fed event by event
     into each cache, no packed walk and no sharding. *)
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
  let tape = capture_instance instance in
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
          (* The fused sweep replay must agree exactly with the
             per-event walk of the same capture on the same geometry. *)
          let direct = per_event tape r.Core.Experiments.sweep_cache in
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

(* --- one walk behind two entries ---

   A tape's words are checked once, as they enter it, and its chunks are
   walked with no further check ([Cache.access_words] and the hierarchy
   and sweep entries built on it); a caller's [int array] is checked by
   [access_batch] first.  Both must then be the same walk.  Random valid
   words, walked shard by shard through a tape view and through the
   checked entries, must leave identical per-owner statistics at every
   level and, for timed hierarchies, identical residency.  One event
   carries owner 511, first seen mid-batch and far above a fresh
   statistics record's initial capacity, so the in-place counters must
   grow mid-walk; the level-1 totals over all shards must also equal a
   per-event [Cache.access] loop, whose counters grow on their own
   path. *)

type two_walks = Plain | Levels of int | Timed of int | Sweep

let gen_two_walks =
  let open QCheck.Gen in
  let* kind =
    oneofl [ Plain; Levels 2; Levels 3; Timed 1; Timed 2; Timed 3; Sweep ]
  in
  let* assoc = oneofl [ 1; 2; 4 ] in
  let* sets = oneofl [ 1; 2; 4; 8 ] in
  let* line = oneofl [ 8; 16; 32 ] in
  let* shards = oneofl [ 1; 2; 4 ] in
  let* chunk_events = 1 -- 64 in
  let* events =
    array_size (2 -- 300) (quad (0 -- 4095) (1 -- 100) (0 -- 40) bool)
  in
  let* at = 1 -- (Array.length events - 1) in
  return (kind, assoc, sets, line, shards, chunk_events, events, at)

let prop_tape_walk_matches_checked_walk =
  QCheck.Test.make ~count:300 ~name:"tape walk = checked int-array walk"
    (QCheck.make gen_two_walks)
    (fun (kind, assoc, sets, line, shards, chunk_events, events, at) ->
      let n = Array.length events in
      let events =
        Array.mapi
          (fun i (addr, size, owner, write) ->
            (addr, size, (if i = at then C.Cache.max_owner else owner), write))
          events
      in
      let packed =
        Array.map
          (fun (addr, size, owner, write) -> C.Cache.pack ~owner ~write ~addr ~size)
          events
      in
      let tape = Mt.Tape.create ~chunk_events () in
      Array.iter
        (fun (addr, size, owner, write) ->
          Mt.Tape.append tape ~owner ~write ~addr ~size)
        events;
      let depth = match kind with Levels k | Timed k -> k | Plain -> 1 | Sweep -> 3 in
      let configs =
        List.init depth (fun i ->
            C.Config.make ~name:"walk" ~associativity:assoc ~sets:(sets lsl i)
              ~line)
      in
      let nofeed = C.Cache.nofeed in
      (* One shard's observable state after each entry: per-level
         statistics (and residency), the level-1 statistics first. *)
      let observe shard =
        let view = Mt.Tape.view tape ~shards ~shard in
        match kind with
        | Plain ->
            let walk f =
              let c = C.Cache.create (List.hd configs) in
              f c;
              C.Cache.flush c;
              [ (C.Cache.stats c, None) ]
            in
            ( walk (fun c -> Mt.Tape.replay_view view [| c |]),
              walk (fun c ->
                  C.Cache.access_batch c ~events:packed ~pos:0 ~len:n ~shards
                    ~shard ~fill:nofeed ~spill:nofeed) )
        | Levels _ | Timed _ ->
            let walk f =
              let h = C.Hierarchy.create ~funnel_events:8 configs in
              (match kind with
              | Timed _ ->
                  C.Hierarchy.attach_residency h
                    (Array.init depth (fun _ -> C.Residency.create ~horizon:n ()))
              | _ -> ());
              f h;
              C.Hierarchy.set_now h n;
              C.Hierarchy.flush h;
              List.init depth (fun i ->
                  let c = C.Hierarchy.level_cache h i in
                  ( C.Cache.stats c,
                    Option.map C.Residency.snapshot (C.Cache.residency c) ))
            in
            ( walk (fun h -> Mt.Tape.replay_view_hierarchies view [| h |]),
              walk (fun h ->
                  C.Hierarchy.access_batch h ~events:packed ~pos:0 ~len:n
                    ~shards ~shard) )
        | Sweep ->
            let walk f =
              let s = C.Sweep.create configs in
              f s;
              C.Sweep.flush s;
              List.map (fun st -> (st, None)) (C.Sweep.stats s)
            in
            ( walk (fun s -> Mt.Tape.replay_view_sweep view s),
              walk (fun s ->
                  C.Sweep.access_batch s ~events:packed ~pos:0 ~len:n ~shards
                    ~shard) )
      in
      let observed = List.init shards observe in
      let snaps = List.map (fun (st, res) -> (C.Stats.snapshot st, res)) in
      let direct = C.Cache.create (List.hd configs) in
      Array.iter
        (fun (addr, size, owner, write) ->
          C.Cache.access direct ~owner ~write ~addr ~size)
        events;
      C.Cache.flush direct;
      List.for_all (fun (tape, checked) -> snaps tape = snaps checked) observed
      && C.Stats.snapshot
           (C.Stats.sum (List.map (fun (tape, _) -> fst (List.hd tape)) observed))
         = snap direct)

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
    Alcotest.test_case "rejected append leaves tape unchanged" `Quick
      test_rejected_append_leaves_tape_unchanged;
    Alcotest.test_case "chunk accounting incremental" `Quick
      test_chunk_accounting_incremental;
    Alcotest.test_case "fused = sequential" `Quick test_fused_equals_sequential;
    Alcotest.test_case "capture/replay bit-identity (all workloads)" `Quick
      test_workload_bit_identity;
    Alcotest.test_case "capture digests = golden (all workloads)" `Quick
      test_capture_digests_golden;
    Alcotest.test_case "partitioned views bit-identity (all workloads)" `Quick
      test_partition_views_bit_identity;
    Alcotest.test_case "partition validation" `Quick test_partition_validation;
    Alcotest.test_case "verify widths = verify_instance" `Quick
      test_verify_widths_match_oracle;
    Alcotest.test_case "simulated sweep" `Quick test_sweep_simulate;
    QCheck_alcotest.to_alcotest prop_tape_walk_matches_checked_walk;
  ]
