module Table = Dvf_util.Table

type row = {
  workload : string;
  cache : Cachesim.Config.t;
  structure : string;
  simulated : float;
  modeled : float;
}

let error row =
  Dvf_util.Maths.rel_error ~expected:row.simulated ~actual:row.modeled

module Telemetry = Dvf_util.Telemetry
module Pool = Dvf_util.Parallel.Pool

(* Turn one simulated cache's final state into Fig. 4 rows: run the
   analytical model (under a ["model"] span) and pair each structure's
   estimate with the simulator's per-owner main-memory count. *)
let rows_of_snapshot ~telemetry ~cache ~registry (instance : Workload.instance)
    snapshot =
  let modeled =
    Telemetry.span telemetry "model" (fun () ->
        Access_patterns.App_spec.main_memory_accesses ~cache
          instance.Workload.spec)
  in
  List.map
    (fun (structure, model_value) ->
      let region = Memtrace.Region.lookup registry structure in
      let simulated =
        float_of_int
          (Cachesim.Stats.Snapshot.owner_main_memory snapshot
             region.Memtrace.Region.id)
      in
      { workload = instance.Workload.workload; cache; structure; simulated;
        modeled = model_value })
    modeled

let verify_instance ~cache (instance : Workload.instance) =
  let registry = Memtrace.Region.create () in
  let recorder = Memtrace.Recorder.buffered () in
  let sim_cache = Cachesim.Cache.create cache in
  ignore
    (Memtrace.Recorder.add_batch_sink recorder
       (Memtrace.Recorder.cache_batch_sink sim_cache));
  instance.Workload.trace registry recorder;
  Memtrace.Recorder.flush recorder;
  Cachesim.Cache.flush sim_cache;
  rows_of_snapshot ~telemetry:Telemetry.null ~cache ~registry instance
    (Cachesim.Stats.snapshot (Cachesim.Cache.stats sim_cache))

(* --- capture once, replay many --- *)

type capture = {
  instance : Workload.instance;
  registry : Memtrace.Region.t;
  tape : Memtrace.Tape.t;
}

let capture_fresh ~telemetry (instance : Workload.instance) =
  Telemetry.span telemetry
    (Printf.sprintf "verify/%s/capture" instance.Workload.workload)
  @@ fun () ->
  let registry = Memtrace.Region.create () in
  let recorder = Memtrace.Recorder.buffered () in
  let tape = Memtrace.Tape.create () in
  ignore
    (Memtrace.Recorder.add_batch_sink recorder (Memtrace.Tape.batch_sink tape));
  let t0 = Telemetry.now_ns telemetry in
  instance.Workload.trace registry recorder;
  Memtrace.Recorder.flush recorder;
  let capture_ns = Int64.sub (Telemetry.now_ns telemetry) t0 in
  if Telemetry.enabled telemetry then begin
    Telemetry.add telemetry ~n:(Memtrace.Recorder.events_emitted recorder)
      "recorder/events";
    Telemetry.add telemetry
      ~n:(Memtrace.Recorder.batches_dispatched recorder)
      "recorder/batches";
    Telemetry.add telemetry ~n:(Memtrace.Tape.length tape)
      "tape/capture_events";
    Telemetry.add telemetry ~n:(Memtrace.Tape.allocated_bytes tape)
      "tape/allocated_bytes";
    Telemetry.time_ns telemetry "verify/capture_total" capture_ns
  end;
  (registry, tape)

(* The workloads take no per-run seed (instances are deterministic given
   their size label), so the store key's seed slot is fixed at 0 until a
   seeded workload family needs it. *)
let store_key (instance : Workload.instance) =
  {
    Memtrace.Tape_store.workload = instance.Workload.workload;
    size = instance.Workload.label;
    seed = 0;
  }

let capture ?(telemetry = Telemetry.null) ?store
    (instance : Workload.instance) =
  let registry, tape =
    match store with
    | None -> capture_fresh ~telemetry instance
    | Some st ->
        (* On a store hit the kernel never runs and no tape events are
           captured: [tape/capture_events] stays 0 while [store/hits]
           advances — the pair CI asserts on a warm store. *)
        let registry, tape, _hit =
          Memtrace.Tape_store.find_or_capture st (store_key instance)
            ~capture:(fun () -> capture_fresh ~telemetry instance)
        in
        (registry, tape)
  in
  { instance; registry; tape }

(* --- the replay engine ---

   Every tape reaches a cache through [engine].  Consumers are hierarchy
   geometries (a plain verification cache is a depth-1 hierarchy), the
   same list for every capture.  The schedule has two phases, each one
   [Pool.map_list]:

   1. Walk: one task per (capture x shard), all captures in one map with
      no per-capture barrier.  Tasks are listed shard-major, so tasks
      running at the same time mostly walk different captures and rarely
      race to decode the same deferred chunk.  A task takes a private
      replica of every consumer (with one residency accumulator per
      level when [bins] is given), walks its shard's
      [Tape.partition_hierarchies] view, pins the clock to the horizon
      (the tape length) and flushes.  Replicas share nothing, so tasks
      need no locking; each cache's statistics (and residency) are
      merged per capture in shard order ([Stats.sum], [Residency.sum]:
      commutative additions), which reproduces the serial walk bit for
      bit.
   2. Rows: one task per (capture x consumer), running [rows] — for the
      Fig. 4 rows that includes the CGPMAC model, so the model never runs
      serially on the orchestrating domain.

   The width is the largest power of two <= the pool size (the set
   partition needs a power of two so the shard bits nest inside the set
   index bits), clamped to the smallest consumer level's set count: a
   wider width would spawn tasks that own no line of that consumer.  Set
   counts are powers of two, so the clamped width still is; rows never
   depend on it.  With a residency accumulator attached the partition
   selects every chunk, since the logical clock must advance over every
   event. *)

let pow2_floor n =
  let p = ref 1 in
  while !p * 2 <= n do p := !p * 2 done;
  !p

let engine ~telemetry ~pool ?bins ~consumers ~rows captures =
  if Option.fold ~none:false ~some:(fun b -> b <= 0) bins then
    invalid_arg "Verify: bins must be positive";
  let width =
    List.fold_left
      (fun acc (c : Cachesim.Config.t) -> min acc c.Cachesim.Config.sets)
      (pow2_floor (Pool.size pool))
      (List.concat consumers)
  in
  (* Replica sets are recycled across tasks, so only about one per
     concurrently running task is ever built, not one per (capture x
     shard): large hierarchies would otherwise pile up as garbage and
     raise the peak heap.  A flushed hierarchy is empty, so resetting
     its statistics, clock and residency makes it as good as new. *)
  let spare = ref [] and lock = Mutex.create () in
  let replicas cap =
    let hs =
      match
        Mutex.protect lock (fun () ->
            match !spare with
            | hs :: rest ->
                spare := rest;
                Some hs
            | [] -> None)
      with
      | Some hs -> hs
      | None -> Array.of_list (List.map Cachesim.Hierarchy.create consumers)
    in
    let horizon = Memtrace.Tape.length cap.tape in
    Array.iter
      (fun h ->
        let depth = Cachesim.Hierarchy.depth h in
        for li = 0 to depth - 1 do
          Cachesim.Stats.reset
            (Cachesim.Cache.stats (Cachesim.Hierarchy.level_cache h li))
        done;
        Cachesim.Hierarchy.set_now h 0;
        Option.iter
          (fun bins ->
            Cachesim.Hierarchy.attach_residency h
              (Array.init depth (fun _ ->
                   Cachesim.Residency.create ~bins ~horizon ())))
          bins)
      hs;
    hs
  in
  let walk (cap, shard) =
    let hs = replicas cap in
    let view =
      (Memtrace.Tape.partition_hierarchies cap.tape hs ~shards:width).(shard)
    in
    Memtrace.Tape.replay_view_hierarchies view hs;
    let levels h =
      Cachesim.Hierarchy.set_now h (Memtrace.Tape.length cap.tape);
      Cachesim.Hierarchy.flush h;
      Array.init (Cachesim.Hierarchy.depth h) (fun li ->
          let c = Cachesim.Hierarchy.level_cache h li in
          ( Cachesim.Stats.sum [ Cachesim.Cache.stats c ],
            Cachesim.Cache.residency c ))
    in
    let result = Array.map levels hs in
    Mutex.protect lock (fun () -> spare := hs :: !spare);
    (result, view)
  in
  let t0 = Telemetry.now_ns telemetry in
  let walked =
    Pool.map_list pool walk
      (List.concat
         (List.init width (fun s -> List.map (fun cap -> (cap, s)) captures)))
  in
  let walk_ns = Int64.sub (Telemetry.now_ns telemetry) t0 in
  spare := [];
  let n_consumers = List.length consumers in
  if Telemetry.enabled telemetry then begin
    let events =
      n_consumers
      * List.fold_left
          (fun acc c -> acc + Memtrace.Tape.length c.tape)
          0 captures
    in
    let sum f = List.fold_left (fun acc (_, v) -> acc + f v) 0 walked in
    (if bins = None then begin
       Telemetry.add telemetry ~n:events "tape/replay_events";
       Telemetry.time_ns telemetry "verify/replay_total" walk_ns
     end
     else begin
       Telemetry.add telemetry ~n:events "tape/timed_replay_events";
       Telemetry.time_ns telemetry "verify/timed_total" walk_ns
     end);
    Telemetry.add telemetry ~n:(List.length walked) "shard/tasks";
    (* Engine-side work: consumers x the events in the chunks the views
       actually walk — the basis of the all-domains throughput figure. *)
    Telemetry.add telemetry
      ~n:(n_consumers * sum Memtrace.Tape.view_events)
      "shard/walked_events";
    Telemetry.add telemetry
      ~n:(sum Memtrace.Tape.view_chunks_skipped)
      "tape/chunks_skipped";
    Telemetry.set_gauge telemetry "shard/count" (float_of_int width)
  end;
  (* Task [s * n_captures + i] walked shard [s] of capture [i]; merge
     each consumer's levels across the capture's shards, in shard
     order. *)
  let walked = Array.of_list (List.map fst walked) in
  let n_captures = List.length captures in
  let merged =
    List.concat
      (List.mapi
         (fun i cap ->
           List.mapi
             (fun ci configs ->
               let per_shard =
                 List.init width (fun s -> walked.((s * n_captures) + i).(ci))
               in
               let levels =
                 List.mapi
                   (fun li _ ->
                     let at_level = List.map (fun ls -> ls.(li)) per_shard in
                     ( Cachesim.Stats.sum (List.map fst at_level),
                       Option.map
                         (fun _ ->
                           Cachesim.Residency.sum
                             (List.map (fun (_, r) -> Option.get r) at_level))
                         bins ))
                   configs
               in
               (cap, configs, levels))
             consumers)
         captures)
  in
  List.concat
    (Pool.map_list pool
       (fun (cap, configs, levels) -> rows cap configs levels)
       merged)

(* Serve handlers and single-capture callers run with [jobs = 1]: a
   one-worker pool runs every task serially in the calling domain. *)
let serially f = Dvf_util.Parallel.with_pool ~jobs:1 f

(* Fig. 4 rows of one single-level consumer. *)
let cache_rows ~telemetry cap configs levels =
  let cache = List.hd configs and stats, _ = List.hd levels in
  Telemetry.span telemetry
    (Printf.sprintf "verify/%s/%s" cap.instance.Workload.workload
       cache.Cachesim.Config.name)
  @@ fun () ->
  let snapshot = Cachesim.Stats.snapshot stats in
  if Telemetry.enabled telemetry then
    Telemetry.add telemetry
      ~n:(Cachesim.Stats.Snapshot.accesses snapshot.Cachesim.Stats.totals)
      "cache/accesses";
  rows_of_snapshot ~telemetry ~cache ~registry:cap.registry cap.instance
    snapshot

let single_level caches = List.map (fun c -> [ c ]) caches

let capture_rows ?(telemetry = Telemetry.null) cap =
  serially (fun pool ->
      engine ~telemetry ~pool
        ~consumers:(single_level Cachesim.Config.verification_set)
        ~rows:(cache_rows ~telemetry) [ cap ])

let capture_stats ?(telemetry = Telemetry.null) ~jobs ~caches cap =
  Dvf_util.Parallel.with_pool ~telemetry ~jobs (fun pool ->
      engine ~telemetry ~pool ~consumers:(single_level caches)
        ~rows:(fun _ _ levels -> List.map fst levels)
        [ cap ])

let finalize_metrics telemetry =
  if Telemetry.enabled telemetry then begin
    Telemetry.gauge_rate telemetry ~name:"recorder/events_per_sec"
      ~counter:"recorder/events" ~span:"verify/capture_total";
    Telemetry.gauge_rate telemetry ~name:"tape/capture_events_per_sec"
      ~counter:"tape/capture_events" ~span:"verify/capture_total";
    Telemetry.gauge_rate telemetry ~name:"tape/replay_events_per_sec"
      ~counter:"tape/replay_events" ~span:"verify/replay_total";
    Telemetry.gauge_rate telemetry ~name:"tape/timed_replay_events_per_sec"
      ~counter:"tape/timed_replay_events" ~span:"verify/timed_total";
    Telemetry.gauge_rate telemetry ~name:"cache/accesses_per_sec"
      ~counter:"cache/accesses" ~span:"verify/replay_total";
    let captured = Telemetry.counter_value telemetry "tape/capture_events" in
    if captured > 0 then
      Telemetry.set_gauge telemetry "tape/bytes_per_event"
        (float_of_int (Telemetry.counter_value telemetry "tape/allocated_bytes")
        /. float_of_int captured);
    let batches = Telemetry.counter_value telemetry "recorder/batches" in
    if batches > 0 then
      Telemetry.set_gauge telemetry "recorder/mean_batch_size"
        (float_of_int (Telemetry.counter_value telemetry "recorder/events")
        /. float_of_int batches)
  end

(* The shared driver of the [run_all*] sweeps: capture every workload's
   tape on the pool (a warm [store] skips the kernel), run the engine
   over all captures, and record the sweep-wide wall clock and gauges.
   An absolute timer rather than an enclosing [span]: tasks run in worker
   domains (fresh span stacks) under [-j N], so an enclosing span would
   prefix their paths only in the serial case and the two metrics
   documents would disagree on structure. *)
let run_sweep ?jobs ~telemetry ?store ?workloads ?bins ~consumers ~rows () =
  let workloads =
    match workloads with Some ws -> ws | None -> Workloads.all ()
  in
  let jobs =
    match jobs with
    | Some j -> j
    | None -> Dvf_util.Parallel.recommended_jobs ()
  in
  let t0 = Telemetry.now_ns telemetry in
  let rows =
    Dvf_util.Parallel.with_pool ~telemetry ~jobs (fun pool ->
        let captures =
          Pool.map_list pool
            (fun w ->
              capture ~telemetry ?store (Workloads.verification_instance w))
            workloads
        in
        engine ~telemetry ~pool ?bins ~consumers ~rows captures)
  in
  if Telemetry.enabled telemetry then
    Telemetry.time_ns telemetry "verify/total"
      (Int64.sub (Telemetry.now_ns telemetry) t0);
  finalize_metrics telemetry;
  rows

let run_all ?jobs ?(telemetry = Telemetry.null) ?store ?workloads () =
  run_sweep ?jobs ~telemetry ?store ?workloads
    ~consumers:(single_level Cachesim.Config.verification_set)
    ~rows:(cache_rows ~telemetry) ()

(* --- per-level rows: DVF input per hardware level ---

   A hierarchy run reports raw traffic per level instead of the
   modeled-vs-simulated pair: the analytical model targets a single
   (last-level) cache, but per-level misses and writebacks are exactly
   the per-level access counts a Thales-style vulnerability formulation
   consumes.  Level 1 of a 1-level run is bit-identical to the single
   cache the classic rows simulate. *)

type level_row = {
  l_workload : string;
  base_cache : Cachesim.Config.t;
  level : int; (* 1-based *)
  level_cache : Cachesim.Config.t;
  l_structure : string;
  accesses : float;
  misses : float;
  l_writebacks : float;
}

let level_rows_of_stats ~registry (instance : Workload.instance) ~base ~configs
    stats_list =
  List.concat
    (List.mapi
       (fun li (config, stats) ->
         let snapshot = Cachesim.Stats.snapshot stats in
         List.map
           (fun (r : Memtrace.Region.region) ->
             let c =
               Cachesim.Stats.Snapshot.owner snapshot r.Memtrace.Region.id
             in
             {
               l_workload = instance.Workload.workload;
               base_cache = base;
               level = li + 1;
               level_cache = config;
               l_structure = r.Memtrace.Region.name;
               accesses = float_of_int (Cachesim.Stats.Snapshot.accesses c);
               misses = float_of_int c.Cachesim.Stats.misses;
               l_writebacks = float_of_int c.Cachesim.Stats.writebacks;
             })
           (Memtrace.Region.regions registry))
       (List.combine configs stats_list))

let record_level_counters telemetry ~configs stats_list =
  if Telemetry.enabled telemetry then
    List.iteri
      (fun li ((_ : Cachesim.Config.t), stats) ->
        let totals = Cachesim.Stats.totals stats in
        let name fmt = Printf.sprintf fmt (li + 1) in
        Telemetry.add telemetry
          ~n:(Cachesim.Stats.Snapshot.accesses totals)
          (name "hierarchy/l%d/accesses");
        Telemetry.add telemetry ~n:totals.Cachesim.Stats.misses
          (name "hierarchy/l%d/misses");
        Telemetry.add telemetry ~n:totals.Cachesim.Stats.writebacks
          (name "hierarchy/l%d/writebacks"))
      (List.combine configs stats_list)

let hierarchies ~levels =
  List.map
    (Cachesim.Config.hierarchy_of ~levels)
    Cachesim.Config.verification_set

let level_rows ~telemetry cap configs levels =
  let stats_list = List.map fst levels in
  record_level_counters telemetry ~configs stats_list;
  level_rows_of_stats ~registry:cap.registry cap.instance
    ~base:(List.hd configs) ~configs stats_list

let capture_level_rows ?(telemetry = Telemetry.null) ~levels cap =
  serially (fun pool ->
      engine ~telemetry ~pool ~consumers:(hierarchies ~levels)
        ~rows:(level_rows ~telemetry) [ cap ])

let run_all_levels ?jobs ?(telemetry = Telemetry.null) ?store ?workloads
    ~levels () =
  let rows =
    run_sweep ?jobs ~telemetry ?store ?workloads
      ~consumers:(hierarchies ~levels) ~rows:(level_rows ~telemetry) ()
  in
  if Telemetry.enabled telemetry then
    Telemetry.set_gauge telemetry "hierarchy/levels" (float_of_int levels);
  rows

let to_level_table rows =
  let t =
    Table.create
      ~title:
        "Per-level hierarchy traffic: accesses, misses and writebacks by \
         cache level"
      [
        ("kernel", Table.Left); ("cache", Table.Left); ("level", Table.Left);
        ("structure", Table.Left); ("accesses", Table.Right);
        ("misses", Table.Right); ("writebacks", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.l_workload; r.base_cache.Cachesim.Config.name;
          Printf.sprintf "L%d" r.level; r.l_structure;
          Table.cell_float r.accesses; Table.cell_float r.misses;
          Table.cell_float r.l_writebacks;
        ])
    rows;
  t

(* --- time-weighted rows: residency-based vulnerability per level ---

   The classic rows weight vulnerability by access counts (the paper's
   N_ha); these weight it by *residency time* — how long each
   structure's lines actually sit in a level, clean or dirty, on the
   logical event clock (Jaulmes et al.'s delayed-error-reporting
   argument).  The replay attaches a [Cachesim.Residency.t] to every
   level, the clock is the tape's event ordinal, and the horizon is the
   tape length, so every integral is an exact integer and the shard
   replicas merge to the serial result bit for bit. *)

type time_row = {
  t_workload : string;
  t_base : Cachesim.Config.t;
  t_level : int; (* 1-based *)
  t_cache : Cachesim.Config.t;
  t_structure : string;
  t_horizon : int;   (* run length in events (tape length) *)
  t_bins : int;
  clean_time : float;   (* line-events resident and clean *)
  dirty_time : float;   (* line-events resident and dirty *)
  t_fills : float;
  t_evictions : float;
  t_flushes : float;
  window : float array;        (* clean+dirty residency per time bin *)
  window_dirty : float array;  (* dirty share of each bin *)
}

(* Exposure in bit-events: every resident bit of the structure's lines,
   integrated over logical time.  This is the time-weighted analogue of
   the paper's DVF kernel (bits x main-memory accesses); the FIT-rate
   and execution-time factors scale every structure alike, so rankings
   — and the Spearman correlation `dvf windows` reports — are
   unaffected by omitting them here. *)
let tw_dvf r =
  float_of_int (8 * r.t_cache.Cachesim.Config.line)
  *. (r.clean_time +. r.dirty_time)

let time_rows_of_snaps ~registry (instance : Workload.instance) ~base ~configs
    snaps =
  List.concat
    (List.mapi
       (fun li (config, snap) ->
         List.map
           (fun (r : Memtrace.Region.region) ->
             let c =
               Cachesim.Residency.Snapshot.owner snap r.Memtrace.Region.id
             in
             {
               t_workload = instance.Workload.workload;
               t_base = base;
               t_level = li + 1;
               t_cache = config;
               t_structure = r.Memtrace.Region.name;
               t_horizon = Cachesim.Residency.Snapshot.horizon snap;
               t_bins = Cachesim.Residency.Snapshot.bins snap;
               clean_time =
                 float_of_int c.Cachesim.Residency.clean_time;
               dirty_time =
                 float_of_int c.Cachesim.Residency.dirty_time;
               t_fills = float_of_int c.Cachesim.Residency.fills;
               t_evictions = float_of_int c.Cachesim.Residency.evictions;
               t_flushes = float_of_int c.Cachesim.Residency.flushes;
               window =
                 Array.map float_of_int
                   (Cachesim.Residency.Snapshot.resident_bins c);
               window_dirty =
                 Array.map float_of_int c.Cachesim.Residency.dirty_bins;
             })
           (Memtrace.Region.regions registry))
       (List.combine configs snaps))

let record_residency_counters telemetry snaps =
  if Telemetry.enabled telemetry then
    List.iter
      (fun snap ->
        let tot = Cachesim.Residency.Snapshot.totals snap in
        Telemetry.add telemetry ~n:tot.Cachesim.Residency.clean_time
          "residency/clean_line_events";
        Telemetry.add telemetry ~n:tot.Cachesim.Residency.dirty_time
          "residency/dirty_line_events";
        Telemetry.add telemetry ~n:tot.Cachesim.Residency.fills
          "residency/fills";
        Telemetry.add telemetry ~n:tot.Cachesim.Residency.evictions
          "residency/evictions")
      snaps

let residency_snapshots ~telemetry levels =
  let snaps =
    List.map
      (fun (_, res) -> Cachesim.Residency.snapshot (Option.get res))
      levels
  in
  record_residency_counters telemetry snaps;
  snaps

let time_rows ~telemetry cap configs levels =
  time_rows_of_snaps ~registry:cap.registry cap.instance ~base:(List.hd configs)
    ~configs
    (residency_snapshots ~telemetry levels)

let timed_level_snapshots ?(telemetry = Telemetry.null)
    ?(bins = Cachesim.Residency.default_bins) ~configs cap =
  serially (fun pool ->
      engine ~telemetry ~pool ~bins ~consumers:[ configs ]
        ~rows:(fun _ _ levels -> residency_snapshots ~telemetry levels)
        [ cap ])

let capture_time_rows ?(telemetry = Telemetry.null)
    ?(bins = Cachesim.Residency.default_bins) ~levels cap =
  serially (fun pool ->
      engine ~telemetry ~pool ~bins ~consumers:(hierarchies ~levels)
        ~rows:(time_rows ~telemetry) [ cap ])

let run_all_timed ?jobs ?(telemetry = Telemetry.null) ?store ?workloads
    ?(levels = 1) ?(bins = Cachesim.Residency.default_bins) () =
  let rows =
    run_sweep ?jobs ~telemetry ?store ?workloads ~bins
      ~consumers:(hierarchies ~levels) ~rows:(time_rows ~telemetry) ()
  in
  if Telemetry.enabled telemetry then
    Telemetry.set_gauge telemetry "residency/bins" (float_of_int bins);
  rows

let to_time_table rows =
  let t =
    Table.create
      ~title:
        "Time-weighted vulnerability: per-structure residency (line-events) \
         by cache level"
      [
        ("kernel", Table.Left); ("cache", Table.Left); ("level", Table.Left);
        ("structure", Table.Left); ("clean", Table.Right);
        ("dirty", Table.Right); ("avg lines", Table.Right);
        ("dirty %", Table.Right); ("tw-DVF", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let resident = r.clean_time +. r.dirty_time in
      let avg =
        if r.t_horizon = 0 then 0.0 else resident /. float_of_int r.t_horizon
      in
      let dirty_pct =
        if resident = 0.0 then 0.0 else 100.0 *. r.dirty_time /. resident
      in
      Table.add_row t
        [
          r.t_workload; r.t_base.Cachesim.Config.name;
          Printf.sprintf "L%d" r.t_level; r.t_structure;
          Table.cell_float r.clean_time; Table.cell_float r.dirty_time;
          Printf.sprintf "%.2f" avg;
          Printf.sprintf "%.1f" dirty_pct;
          Printf.sprintf "%.4g" (tw_dvf r);
        ])
    rows;
  t

let workload_error ~rows workload cache =
  let relevant =
    List.filter
      (fun r -> r.workload = workload && r.cache.Cachesim.Config.name = cache.Cachesim.Config.name)
      rows
  in
  if relevant = [] then invalid_arg "Verify.workload_error: no rows";
  let total_sim = List.fold_left (fun acc r -> acc +. r.simulated) 0.0 relevant in
  let total_model = List.fold_left (fun acc r -> acc +. r.modeled) 0.0 relevant in
  Dvf_util.Maths.rel_error ~expected:total_sim ~actual:total_model

let to_table rows =
  let t =
    Table.create
      ~title:
        "Fig. 4 - Model verification: estimated vs simulated main-memory \
         accesses"
      [
        ("kernel", Table.Left); ("cache", Table.Left);
        ("structure", Table.Left); ("simulated", Table.Right);
        ("modeled", Table.Right); ("error %", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.workload; r.cache.Cachesim.Config.name; r.structure;
          Table.cell_float r.simulated; Table.cell_float r.modeled;
          Printf.sprintf "%.1f" (100.0 *. error r);
        ])
    rows;
  t
