(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables II, IV-VII; Figures 4-7), runs the ablation studies
   DESIGN.md calls out, exercises the Aspen DSL end to end, and times the
   analytical models against the cache simulator with bechamel (the
   paper's "evaluation cost at the granularity of seconds" claim).

   Usage: dune exec bench/main.exe
     [-- section ... [-j N] [--tape-store DIR]]
   where section is one of: tables fig4 fig5 fig6 fig7 sweep tape ablation
   sparse component inject chaos aspen speed serve.
   With no sections every section runs.  [-j N] (or [--jobs N]) sets the
   domain count for the parallel sections (fig4, fig6, sweep, inject,
   chaos); the default is Domain.recommended_domain_count, and [-j 1]
   forces the serial path.  [--tape-store DIR] routes every capture in
   fig4, sweep and serve through a persistent content-addressed tape
   store, so a warm store benchmarks the replay-from-disk path and the
   snapshot records store hit/miss/byte counters.

   Every run also writes BENCH_dvf.json — a machine-readable performance
   snapshot (command, cache geometry, job count, wall-clock, trace-replay
   events/sec, and the full telemetry document) — so CI can archive
   per-commit performance without parsing the human-readable tables. *)

let section_header title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* --- Tables II, IV, V, VI, VII --- *)

let run_tables () =
  section_header "Static tables";
  Dvf_util.Table.print (Core.Experiments.table2 ());
  Dvf_util.Table.print (Core.Experiments.table4 ());
  Dvf_util.Table.print (Core.Experiments.table5 ());
  Dvf_util.Table.print (Core.Experiments.table6 ());
  Dvf_util.Table.print (Core.Experiments.table7 ())

(* --- Fig. 4: model verification --- *)

let run_fig4 ~jobs ~telemetry ~store () =
  section_header "Fig. 4 - Model verification (trace-driven simulation vs CGPMAC)";
  let rows = Core.Verify.run_all ~jobs ~telemetry ?store () in
  Dvf_util.Table.print (Core.Verify.to_table rows);
  let summary =
    Dvf_util.Table.create ~title:"Aggregate (total-traffic) error per kernel"
      [
        ("kernel", Dvf_util.Table.Left); ("cache", Dvf_util.Table.Left);
        ("error %", Dvf_util.Table.Right); ("<= 15%?", Dvf_util.Table.Left);
      ]
  in
  List.iter
    (fun (w : Core.Workload.t) ->
      List.iter
        (fun cache ->
          let err =
            100.0 *. Core.Verify.workload_error ~rows w.Core.Workload.name cache
          in
          Dvf_util.Table.add_row summary
            [
              w.Core.Workload.name; cache.Cachesim.Config.name;
              Printf.sprintf "%.1f" err;
              (if err <= 15.0 then "yes" else "NO");
            ])
        Cachesim.Config.verification_set)
    (Core.Workloads.all ());
  Dvf_util.Table.print summary

(* --- Fig. 5: DVF profiling --- *)

let run_fig5 () =
  section_header "Fig. 5 - DVF profiling (Table VI sizes, four caches)";
  let rows = Core.Profile.run_all () in
  Dvf_util.Table.print (Core.Profile.to_table rows);
  (* The qualitative observations the paper draws from Fig. 5. *)
  let dvf workload structure cache =
    let r =
      List.find
        (fun (r : Core.Profile.row) ->
          r.Core.Profile.workload = workload
          && r.Core.Profile.structure = structure
          && r.Core.Profile.cache.Cachesim.Config.name = cache)
        rows
    in
    r.Core.Profile.dvf
  in
  Printf.printf "Observations (paper SS IV-B):\n";
  Printf.printf "  VM: DVF(A) / DVF(B) at 4MB = %.1f (A's stride makes it dominant)\n"
    (dvf "VM" "A" "4MB" /. dvf "VM" "B" "4MB");
  Printf.printf "  CG vs FT: DVF_a ratio at 4MB = %.0fx (working set + time)\n"
    (dvf "CG" "CG" "4MB" /. dvf "FT" "FT" "4MB");
  Printf.printf
    "  MC vs NB: DVF_a ratio at 16KB = %.0fx (more lookups -> more accesses)\n"
    (dvf "MC" "MC" "16KB" /. dvf "NB" "NB" "16KB");
  Printf.printf "  FT cliff: DVF_a(16KB) / DVF_a(128KB) = %.0fx (sudden jump)\n"
    (dvf "FT" "FT" "16KB" /. dvf "FT" "FT" "128KB");
  Printf.printf
    "  VM streaming stays flat: DVF_a(16KB) / DVF_a(4MB) = %.1fx (gradual)\n"
    (dvf "VM" "VM" "16KB" /. dvf "VM" "VM" "4MB")

(* --- Fig. 6: CG vs PCG --- *)

let run_fig6 ~jobs ~telemetry () =
  section_header "Fig. 6 - Algorithm optimization (CG vs PCG)";
  let rows = Core.Experiments.fig6 ~jobs ~telemetry () in
  Dvf_util.Table.print (Core.Experiments.fig6_table rows);
  let crossover =
    List.find_opt
      (fun (r : Core.Experiments.fig6_row) ->
        r.Core.Experiments.pcg_dvf < r.Core.Experiments.cg_dvf)
      rows
  in
  (match crossover with
  | Some r ->
      Printf.printf
        "PCG becomes less vulnerable than CG at n = %d (paper: crossover \
         between small and large problem sizes)\n"
        r.Core.Experiments.n
  | None -> Printf.printf "no crossover observed\n")

(* --- Fig. 7: ECC protection --- *)

let run_fig7 () =
  section_header "Fig. 7 - Hardware protection (ECC) on VM";
  let rows = Core.Experiments.fig7 ~steps:30 () in
  Dvf_util.Table.print (Core.Experiments.fig7_table rows);
  let secded_opt, chipkill_opt = Core.Experiments.fig7_optimum rows in
  Printf.printf
    "DVF minimized at %.0f%% (SECDED) / %.0f%% (chipkill) degradation \
     (paper: about 5%%)\n"
    (100.0 *. secded_opt) (100.0 *. chipkill_opt)

(* --- Ablations --- *)

let run_ablation () =
  section_header "Ablation studies";
  let cache = Cachesim.Config.small_verification in

  (* (a) Eq. 8 allocation model: Bernoulli (paper-literal) vs Uniform
     (contiguous layout) against the LRU simulator on a fitting mix. *)
  let simulate_reuse ~fa ~fb =
    let line = cache.Cachesim.Config.line in
    let c = Cachesim.Cache.create cache in
    for b = 0 to fa - 1 do
      Cachesim.Cache.access c ~owner:1 ~write:false ~addr:(b * line) ~size:1
    done;
    for b = 0 to fb - 1 do
      Cachesim.Cache.access c ~owner:2 ~write:false
        ~addr:((1 lsl 24) + (b * line)) ~size:1
    done;
    let misses () =
      let snap = Cachesim.Stats.snapshot (Cachesim.Cache.stats c) in
      (Cachesim.Stats.Snapshot.owner snap 1).Cachesim.Stats.misses
    in
    let before = misses () in
    for b = 0 to fa - 1 do
      Cachesim.Cache.access c ~owner:1 ~write:false ~addr:(b * line) ~size:1
    done;
    misses () - before
  in
  let t =
    Dvf_util.Table.create
      ~title:"(a) Reuse-model allocation: Bernoulli (Eq. 8 literal) vs Uniform"
      [
        ("F_A", Dvf_util.Table.Right); ("F_B", Dvf_util.Table.Right);
        ("LRU sim", Dvf_util.Table.Right); ("bernoulli", Dvf_util.Table.Right);
        ("uniform", Dvf_util.Table.Right);
      ]
  in
  List.iter
    (fun (fa, fb) ->
      let sim = simulate_reuse ~fa ~fb in
      let model alloc =
        Access_patterns.Reuse.misses_per_reuse ~alloc ~cache ~fa ~fb
          ~scenario:`Lru_protected ()
      in
      Dvf_util.Table.add_row t
        [
          string_of_int fa; string_of_int fb; string_of_int sim;
          Printf.sprintf "%.0f" (model `Bernoulli);
          Printf.sprintf "%.0f" (model `Uniform);
        ])
    [ (100, 50); (128, 128); (64, 256); (256, 256) ];
  Dvf_util.Table.print t;

  (* (b) Template distance: stack (LRU-faithful) vs raw (paper-literal)
     on the FT reference stream. *)
  let p = Kernels.Fft.make_params 2048 in
  let spec_of distance =
    let base = Kernels.Fft.spec p in
    let s = List.hd base.Access_patterns.App_spec.structures in
    match s.Access_patterns.App_spec.pattern with
    | Some (Access_patterns.Pattern.Templated tpl) ->
        Access_patterns.Template.main_memory_accesses ~cache
          { tpl with Access_patterns.Template.distance }
    | _ -> assert false
  in
  Printf.printf
    "(b) FT 2^11 template on the 8KB cache: stack distance %.0f accesses, \
     raw distance %.0f\n"
    (spec_of `Stack) (spec_of `Raw);

  (* (c) Random-model contiguity: the paper's Belm = XE upper bound vs the
     run-length-aware estimate, against the MC simulation. *)
  let mc = Kernels.Monte_carlo.verification in
  let registry = Memtrace.Region.create () in
  let recorder = Memtrace.Recorder.create () in
  let c = Cachesim.Cache.create cache in
  ignore (Memtrace.Recorder.add_sink recorder (Memtrace.Recorder.cache_sink c));
  ignore (Kernels.Monte_carlo.run registry recorder mc);
  Cachesim.Cache.flush c;
  let sim_total =
    Cachesim.Stats.Snapshot.total_main_memory
      (Cachesim.Stats.snapshot (Cachesim.Cache.stats c))
  in
  let model_total run_length_aware =
    let spec = Kernels.Monte_carlo.spec mc in
    let adjust (s : Access_patterns.App_spec.structure) =
      match s.Access_patterns.App_spec.pattern with
      | Some (Access_patterns.Pattern.Random r) when not run_length_aware ->
          {
            s with
            Access_patterns.App_spec.pattern =
              Some
                (Access_patterns.Pattern.Random
                   { r with Access_patterns.Random_access.run_length = 1 });
          }
      | _ -> s
    in
    let spec =
      {
        spec with
        Access_patterns.App_spec.structures =
          List.map adjust spec.Access_patterns.App_spec.structures;
      }
    in
    List.fold_left
      (fun acc (_, v) -> acc +. v)
      0.0
      (Access_patterns.App_spec.main_memory_accesses ~cache spec)
  in
  Printf.printf
    "(c) MC on the 8KB cache: simulated %d; paper-literal model %.0f; \
     contiguity-aware model %.0f\n"
    sim_total (model_total false) (model_total true);

  (* (d) PCG preconditioner storage: vector vs dense matrix at n = 800. *)
  let dvf_of preconditioner =
    let params =
      Kernels.Pcg.make_params ~max_iterations:5000 ~tolerance:1e-8
        ~preconditioner 800
    in
    let result = Kernels.Pcg.run_untraced params in
    let spec =
      Kernels.Pcg.spec ~iterations:result.Kernels.Pcg.iterations params
    in
    let cache = Cachesim.Config.profiling_4mb in
    let time =
      Core.Perf.app_time Core.Perf.default_machine ~cache
        ~flops:result.Kernels.Pcg.flops spec
    in
    (Core.Dvf.of_spec ~cache ~fit:5000.0 ~time spec).Core.Dvf.total
  in
  let cg_row =
    List.find
      (fun (r : Core.Experiments.fig6_row) -> r.Core.Experiments.n = 800)
      (Core.Experiments.fig6 ~sizes:[ 800 ] ())
  in
  Printf.printf
    "(d) PCG at n=800: vector-Jacobi DVF %.4g, dense-matrix-M DVF %.4g, \
     plain CG %.4g\n    (the dense auxiliary matrix inverts the Fig. 6 \
     conclusion)\n"
    (dvf_of `Vector) (dvf_of `Dense_matrix) cg_row.Core.Experiments.cg_dvf

(* --- Cache-capacity sweep (Fig. 5's x-axis at full resolution) --- *)

let run_sweep ~jobs ~telemetry ~store () =
  section_header "Cache-capacity sweep (DVF_a, 4KB..16MB, 8-way, 64B lines)";
  (* The sweep also runs the trace-driven simulator over every geometry —
     one captured tape per workload, all geometries driven by one engine
     walk — next to the analytic model. *)
  List.iter
    (fun workload ->
      let instance = Core.Workloads.profiling_instance workload in
      let rows =
        Core.Experiments.cache_sweep ~jobs ~telemetry ?store ~simulate:true
          instance
      in
      Dvf_util.Table.print
        (Core.Experiments.cache_sweep_table
           ~label:instance.Core.Workload.label rows))
    [ Core.Workloads.vm; Core.Workloads.ft; Core.Workloads.mc ]

(* --- Tape replay engine: domain scaling, hierarchy and residency --- *)

let run_tape ~jobs ~telemetry () =
  section_header "Tape replay engine - set-sharded scaling (Fig. 4 sweep)";
  let module T = Dvf_util.Telemetry in
  (* Each run goes against a forked collector so its counters and
     accumulators don't mix with the other runs'; rates are read off the
     fork, then everything merges into the session collector for the
     BENCH_dvf.json snapshot. *)
  let run ~jobs =
    let fork = T.fork telemetry in
    let t0 = Unix.gettimeofday () in
    let rows = Core.Verify.run_all ~jobs ~telemetry:fork () in
    let seconds = Unix.gettimeofday () -. t0 in
    let rate counter =
      let ns = T.span_ns fork "verify/replay_total" in
      if Int64.compare ns 0L > 0 then
        float_of_int (T.counter_value fork counter)
        /. (Int64.to_float ns /. 1e9)
      else 0.0
    in
    T.merge ~into:telemetry fork;
    (rows, seconds, rate "tape/replay_events", rate "shard/walked_events")
  in
  (* Two rates per run: "logical" divides the stream each cache consumed
     once by replay wall-clock; "aggregate" divides the event-walks the
     engine performed across all its shard domains by the same wall-clock
     (a 1-domain run performs exactly one walk, so both rates coincide
     for the baseline).  On a box with >= shard_domains cores the logical
     rate converges to the aggregate; the aggregate is the
     machine-independent engine throughput. *)
  let shard_domains = max 4 jobs in
  let one_rows, one_s, one_rate, _ = run ~jobs:1 in
  let shardn_rows, shardn_s, shardn_rate, shardn_walked =
    run ~jobs:shard_domains
  in
  let t =
    Dvf_util.Table.create
      ~title:
        (Printf.sprintf
           "Sharded replay scaling (set-partitioned, %d shards on %d domains)"
           shard_domains shard_domains)
      [
        ("walk", Dvf_util.Table.Left);
        ("wall s", Dvf_util.Table.Right);
        ("logical events/sec", Dvf_util.Table.Right);
        ("aggregate events/sec", Dvf_util.Table.Right);
        ("agg speedup", Dvf_util.Table.Right);
      ]
  in
  List.iter
    (fun (name, seconds, logical, aggregate) ->
      Dvf_util.Table.add_row t
        [
          name;
          Printf.sprintf "%.3f" seconds;
          Printf.sprintf "%.3g" logical;
          Printf.sprintf "%.3g" aggregate;
          Printf.sprintf "%.2fx"
            (if one_rate > 0.0 then aggregate /. one_rate else 0.0);
        ])
    [
      ("1 domain (baseline)", one_s, one_rate, one_rate);
      ( Printf.sprintf "sharded, %d domains" shard_domains,
        shardn_s,
        shardn_rate,
        shardn_walked );
    ];
  Dvf_util.Table.print t;
  Printf.printf "sharded rows bit-identical to serial: %s\n"
    (if one_rows = shardn_rows then "yes" else "NO");
  if T.enabled telemetry then begin
    T.set_gauge telemetry "bench/fused_1dom_events_per_sec" one_rate;
    T.set_gauge telemetry "bench/sharded_scaling_events_per_sec" shardn_walked;
    T.set_gauge telemetry "bench/sharded_partitioned_events_per_sec"
      shardn_walked;
    T.set_gauge telemetry "bench/shard_domains" (float_of_int shard_domains)
  end;
  (* Per-level hierarchy throughput: a two-level run reports each level's
     served accesses over the same replay wall-clock. *)
  let levels = 2 in
  let fork = T.fork telemetry in
  let t0 = Unix.gettimeofday () in
  let (_ : Core.Verify.level_row list) =
    Core.Verify.run_all_levels ~jobs ~telemetry:fork ~levels ()
  in
  let hier_s = Unix.gettimeofday () -. t0 in
  let level_counter fmt level = T.counter_value fork (Printf.sprintf fmt level) in
  let t =
    Dvf_util.Table.create
      ~title:
        (Printf.sprintf
           "L1/L2 write-back hierarchy (verification sweep, %d levels, \
            %.3f s)"
           levels hier_s)
      [
        ("level", Dvf_util.Table.Left);
        ("accesses", Dvf_util.Table.Right);
        ("misses", Dvf_util.Table.Right);
        ("writebacks", Dvf_util.Table.Right);
        ("accesses/sec", Dvf_util.Table.Right);
      ]
  in
  for level = 1 to levels do
    let accesses = level_counter "hierarchy/l%d/accesses" level in
    let rate =
      if hier_s > 0.0 then float_of_int accesses /. hier_s else 0.0
    in
    Dvf_util.Table.add_row t
      [
        Printf.sprintf "L%d" level;
        Printf.sprintf "%d" accesses;
        Printf.sprintf "%d" (level_counter "hierarchy/l%d/misses" level);
        Printf.sprintf "%d" (level_counter "hierarchy/l%d/writebacks" level);
        Printf.sprintf "%.3g" rate;
      ];
    if T.enabled telemetry then
      T.set_gauge telemetry
        (Printf.sprintf "bench/level%d_accesses_per_sec" level)
        rate
  done;
  Dvf_util.Table.print t;
  let l1_out =
    level_counter "hierarchy/l%d/misses" 1
    + level_counter "hierarchy/l%d/writebacks" 1
  in
  Printf.printf "L2 accesses = L1 misses + L1 writebacks: %s\n"
    (if level_counter "hierarchy/l%d/accesses" 2 = l1_out then "yes" else "NO");
  T.merge ~into:telemetry fork;
  if T.enabled telemetry then
    T.set_gauge telemetry "bench/hierarchy_levels" (float_of_int levels);
  (* Timed replay: residency tracking swaps the specialized unsafe loop
     for a per-event logical clock. *)
  let fork = T.fork telemetry in
  let t0 = Unix.gettimeofday () in
  let (_ : Core.Verify.time_row list) =
    Core.Verify.run_all_timed ~jobs ~telemetry:fork ()
  in
  let timed_s = Unix.gettimeofday () -. t0 in
  let timed_rate =
    let ns = T.span_ns fork "verify/timed_total" in
    if Int64.compare ns 0L > 0 then
      float_of_int (T.counter_value fork "tape/timed_replay_events")
      /. (Int64.to_float ns /. 1e9)
    else 0.0
  in
  T.merge ~into:telemetry fork;
  Printf.printf
    "timed replay (per-line residency): %.3f s wall, %.3g events/sec\n"
    timed_s timed_rate;
  if T.enabled telemetry then
    T.set_gauge telemetry "bench/timed_replay_events_per_sec" timed_rate;
  (* On-disk load: eager per-chunk decode vs the default lazy mmap
     adoption (.dvftape v2).  Both paths verify the full payload
     checksum; the lazy path defers the addr/meta array decode until a
     replay touches each chunk, so load returns after the header walk
     and one streaming pass over the mapping.  Best-of-N wall times
     keep the ratio stable against page-cache noise. *)
  let cap =
    Core.Verify.capture
      (Core.Workloads.verification_instance Core.Workloads.cg)
  in
  let tmp = Filename.temp_file "dvf_bench" ".dvftape" in
  Fun.protect ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
  @@ fun () ->
  Memtrace.Tape_io.save ~path:tmp
    ~meta:
      {
        Memtrace.Tape_io.workload = cap.Core.Verify.instance.Core.Workload.workload;
        size = cap.Core.Verify.instance.Core.Workload.label;
        seed = 0;
      }
    ~registry:cap.Core.Verify.registry ~tape:cap.Core.Verify.tape;
  let best_of n f =
    let best = ref infinity in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      (match f () with
      | Ok (_, _, (tape : Memtrace.Tape.t)) -> ignore (Memtrace.Tape.length tape)
      | Error e -> failwith (Memtrace.Tape_io.error_to_string e));
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let reps = 5 in
  let eager_s = best_of reps (fun () -> Memtrace.Tape_io.load ~eager:true tmp) in
  let lazy_s = best_of reps (fun () -> Memtrace.Tape_io.load ~telemetry tmp) in
  let speedup = if lazy_s > 0.0 then eager_s /. lazy_s else 0.0 in
  Printf.printf
    "tape load (%s, %d events): eager %.4f s, lazy mmap %.4f s -> %.2fx\n"
    cap.Core.Verify.instance.Core.Workload.workload
    (Memtrace.Tape.length cap.Core.Verify.tape)
    eager_s lazy_s speedup;
  if T.enabled telemetry then begin
    T.set_gauge telemetry "bench/tape_load_eager_sec" eager_s;
    T.set_gauge telemetry "bench/tape_load_mmap_sec" lazy_s;
    T.set_gauge telemetry "bench/tape_load_mmap_speedup" speedup
  end

(* --- Extensions: sparse CG and cache-component DVF --- *)

let run_sparse () =
  section_header "Extension: sparse CG (NPB CG's CSR shape)";
  (* Verification of the sparse model against the simulator. *)
  let p =
    Kernels.Sparse_cg.make_params ~max_iterations:8 ~tolerance:0.0
      (`Laplacian_2d 64)
  in
  let t =
    Dvf_util.Table.create ~title:"Sparse CG model verification (Fig. 4 methodology)"
      [
        ("cache", Dvf_util.Table.Left); ("simulated", Dvf_util.Table.Right);
        ("modeled", Dvf_util.Table.Right); ("error %", Dvf_util.Table.Right);
      ]
  in
  List.iter
    (fun cfg ->
      let registry = Memtrace.Region.create () in
      let recorder = Memtrace.Recorder.create () in
      let cache = Cachesim.Cache.create cfg in
      ignore
        (Memtrace.Recorder.add_sink recorder (Memtrace.Recorder.cache_sink cache));
      let result = Kernels.Sparse_cg.run registry recorder p in
      Cachesim.Cache.flush cache;
      let snap = Cachesim.Stats.snapshot (Cachesim.Cache.stats cache) in
      let spec =
        Kernels.Sparse_cg.spec ~iterations:result.Kernels.Sparse_cg.iterations p
      in
      let modeled =
        Access_patterns.App_spec.main_memory_accesses ~cache:cfg spec
      in
      let sim = ref 0.0 and model = ref 0.0 in
      List.iter
        (fun (name, m) ->
          let region = Memtrace.Region.lookup registry name in
          sim :=
            !sim
            +. float_of_int
                 (Cachesim.Stats.Snapshot.owner_main_memory snap
                    region.Memtrace.Region.id);
          model := !model +. m)
        modeled;
      Dvf_util.Table.add_row t
        [
          cfg.Cachesim.Config.name; Printf.sprintf "%.0f" !sim;
          Printf.sprintf "%.0f" !model;
          Printf.sprintf "%.1f"
            (100.0 *. Dvf_util.Maths.rel_error ~expected:!sim ~actual:!model);
        ])
    Cachesim.Config.verification_set;
  Dvf_util.Table.print t;
  (* Storage-format comparison: same tridiagonal system, dense vs CSR. *)
  let n = 800 and iterations = 20 in
  let cache = Cachesim.Config.profiling_4mb in
  let dvf spec flops =
    let time = Core.Perf.app_time Core.Perf.default_machine ~cache ~flops spec in
    (Core.Dvf.of_spec ~cache ~fit:5000.0 ~time spec).Core.Dvf.total
  in
  let dense_spec = Kernels.Cg.spec ~iterations (Kernels.Cg.make_params n) in
  let sparse_params = Kernels.Sparse_cg.make_params (`Tridiagonal n) in
  let sparse_spec = Kernels.Sparse_cg.spec ~iterations sparse_params in
  let sparse_nnz = (Kernels.Sparse_cg.run_untraced sparse_params).Kernels.Sparse_cg.nnz in
  Printf.printf
    "Same tridiagonal system, %d iterations: dense DVF_a %.4g, CSR DVF_a %.4g\n\
     (the sparse format carries %d nonzeros instead of %d entries — the\n\
     working-set term of Eq. 1 rewards compact storage)\n"
    iterations
    (dvf dense_spec (iterations * 4 * n * n))
    (dvf sparse_spec (iterations * 4 * sparse_nnz))
    sparse_nnz (n * n)

let run_component () =
  section_header "Extension: DVF for the cache component (paper SS I)";
  let cache = Cachesim.Config.profiling_4mb in
  List.iter
    (fun workload ->
      let instance = Core.Workloads.profiling_instance workload in
      let time =
        Core.Perf.app_time Core.Perf.default_machine ~cache
          ~flops:instance.Core.Workload.flops instance.Core.Workload.spec
      in
      Dvf_util.Table.print
        (Core.Component.to_table
           (Core.Component.both ~cache ~time instance.Core.Workload.spec)))
    (Core.Workloads.all ())

(* --- Fault injection vs DVF --- *)

let run_inject ~jobs ~telemetry () =
  section_header
    "Fault injection vs DVF (the comparator methodology, paper SS I / SS VI)";
  let cache = Cachesim.Config.profiling_4mb in
  (* All six registered workloads through the injection subsystem, trials
     fanned out over [jobs] domains. *)
  let start = Unix.gettimeofday () in
  let results = Core.Injection.run_all ~jobs ~telemetry (Core.Workloads.all ()) in
  let inject_seconds = Unix.gettimeofday () -. start in
  List.iter
    (fun r -> Dvf_util.Table.print (Core.Injection.to_table r))
    results;
  let corr = Core.Injection.correlate ~cache results in
  Dvf_util.Table.print (Core.Injection.correlation_table corr);
  Format.printf "%a" Core.Injection.pp_spearman corr;
  (* VM: empirical strikes arrive proportionally to a structure's size
     and exposure time; the injection-implied vulnerability is therefore
     S_d * P(strike corrupts).  DVF's claim is that its exposure product
     ranks structures the same way. *)
  let vm_result =
    List.find (fun r -> r.Core.Injection.workload = "VM") results
  in
  let vm_spec = vm_result.Core.Injection.spec in
  let vm_dvf = Core.Dvf.of_spec ~cache ~fit:5000.0 ~time:1e-4 vm_spec in
  let implied =
    List.map
      (fun (c : Kernels.Fault_injection.campaign) ->
        let bytes =
          List.assoc c.Kernels.Fault_injection.structure
            (Access_patterns.App_spec.structure_bytes vm_spec)
        in
        ( c.Kernels.Fault_injection.structure,
          float_of_int bytes *. Kernels.Fault_injection.sdc_rate c ))
      vm_result.Core.Injection.campaigns
  in
  let dvf_rank =
    List.map
      (fun (s : Core.Dvf.structure_dvf) -> s.Core.Dvf.name)
      (Core.Selective.rank vm_dvf)
  in
  Printf.printf
    "VM injection-implied vulnerability (S_d x SDC rate): %s; DVF: %s\n\
     (the implied scores are near-tied: strikes arrive per byte, and the\n\
     per-strike masking -- A's 3/4 dead stride, C's flips on still-zero\n\
     output -- cancels the S_d differences DVF's exposure product\n\
     surfaces)\n"
    (String.concat ", "
       (List.map (fun (s, v) -> Printf.sprintf "%s=%.0f" s v) implied))
    (String.concat " > " dvf_rank);
  (* CG: per-strike corruption probabilities expose what DVF abstracts
     away -- logical masking (A's flips mostly vanish into the solve) and
     algorithmic self-correction (p's corruption is detected, not
     silent). *)
  Printf.printf
    "CG: x (accumulator) is the most SDC-prone per strike; p's corruption\n\
     is caught by non-convergence; A is heavily logically masked -- the\n\
     application-semantics effect DVF's exposure metric deliberately\n\
     abstracts away (SS VI: injection 'cannot quantitatively compare ...\n\
     components' without huge trial counts).\n";
  (* The cost argument: one campaign vs one model evaluation. *)
  let start_model = Unix.gettimeofday () in
  for _ = 1 to 1000 do
    ignore (Access_patterns.App_spec.main_memory_accesses ~cache vm_spec)
  done;
  let model_seconds = (Unix.gettimeofday () -. start_model) /. 1000.0 in
  let total_trials =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (c : Kernels.Fault_injection.campaign) ->
            acc + c.Kernels.Fault_injection.trials)
          acc r.Core.Injection.campaigns)
      0 results
  in
  Printf.printf
    "cost: %d injection trials took %.2f s (-j %d); one DVF model \
     evaluation %.2e s (%.0fx)\n"
    total_trials inject_seconds jobs model_seconds
    (inject_seconds /. model_seconds)

(* --- Chaos: component-kill campaigns over the service graph --- *)

let run_chaos ~jobs ~telemetry () =
  section_header "Chaos campaigns - component kills over the service graph";
  let w = Core.Service_workloads.workload () in
  let trials = 2000 in
  let start = Unix.gettimeofday () in
  let report =
    match Core.Chaos.run ~jobs ~telemetry ~trials w with
    | Some r -> r
    | None -> failwith "service_graph workload lost its topology"
  in
  let chaos_seconds = Unix.gettimeofday () -. start in
  Dvf_util.Table.print (Core.Chaos.to_table report);
  Format.printf "%a" Core.Chaos.pp_summary report;
  let total_trials =
    List.fold_left
      (fun acc (r : Core.Chaos.row) -> acc + r.Core.Chaos.trials)
      0 report.Core.Chaos.rows
  in
  let trial_rate =
    if chaos_seconds > 0.0 then float_of_int total_trials /. chaos_seconds
    else 0.0
  in
  Printf.printf "%d kill trials in %.3f s = %.0f trials/sec (-j %d)\n"
    total_trials chaos_seconds trial_rate jobs;
  (* The synthesized request traffic through the verification cache — the
     replay feeding the availability-vs-DVF comparison above. *)
  let inst = w.Core.Workload.instance `Verification in
  let cache = Cachesim.Cache.create Cachesim.Config.small_verification in
  let registry = Memtrace.Region.create () in
  let recorder = Memtrace.Recorder.create () in
  ignore
    (Memtrace.Recorder.add_sink recorder (Memtrace.Recorder.cache_sink cache));
  let t0 = Unix.gettimeofday () in
  inst.Core.Workload.trace registry recorder;
  Memtrace.Recorder.flush recorder;
  let trace_seconds = Unix.gettimeofday () -. t0 in
  let events = Memtrace.Recorder.events_emitted recorder in
  let event_rate =
    if trace_seconds > 0.0 then float_of_int events /. trace_seconds else 0.0
  in
  Printf.printf
    "service-graph traffic: %d events in %.3f s = %.2e events/sec\n" events
    trace_seconds event_rate;
  if Dvf_util.Telemetry.enabled telemetry then begin
    Dvf_util.Telemetry.set_gauge telemetry "bench/chaos_trials_per_sec"
      trial_rate;
    Dvf_util.Telemetry.set_gauge telemetry
      "bench/service_graph_replay_events_per_sec" event_rate
  end

(* --- Aspen DSL end-to-end --- *)

let run_aspen () =
  section_header "Extended-Aspen DSL (builtin models on builtin machines)";
  let file = Aspen.Builtin_models.load () in
  let machines = [ "small_verif"; "prof_16kb"; "prof_8mb" ] in
  let t =
    Dvf_util.Table.create ~title:"DVF_a computed from the DSL models"
      (("app", Dvf_util.Table.Left)
      :: List.map (fun m -> (m, Dvf_util.Table.Right)) machines)
  in
  List.iter
    (fun app_name ->
      let cells =
        List.map
          (fun machine_name ->
            let machine = Aspen.Compile.find_machine file machine_name in
            let app = Aspen.Compile.find_app file app_name in
            Dvf_util.Table.cell_float (Aspen.Compile.dvf machine app).Core.Dvf.total)
          machines
      in
      Dvf_util.Table.add_row t (app_name :: cells))
    [ "vm"; "cg"; "nb"; "mg"; "ft"; "mc" ];
  Dvf_util.Table.print t;
  (* Cross-check: the DSL's VM model against the OCaml-API spec. *)
  let machine = Aspen.Compile.find_machine file "prof_8mb" in
  let dsl_app = Aspen.Compile.find_app file "vm" in
  let dsl_nha =
    Access_patterns.App_spec.main_memory_accesses ~cache:machine.Aspen.Compile.cache
      dsl_app.Aspen.Compile.spec
  in
  let api_nha =
    Access_patterns.App_spec.main_memory_accesses ~cache:machine.Aspen.Compile.cache
      (Kernels.Vm.spec Kernels.Vm.profiling)
  in
  Printf.printf "DSL vs OCaml API, VM N_ha on prof_8mb: %s\n"
    (if List.for_all2
          (fun (_, a) (_, b) -> Dvf_util.Maths.approx_equal ~eps:1e-9 a b)
          dsl_nha api_nha
     then "identical"
     else "MISMATCH")

(* --- Serve: query-daemon request throughput --- *)

let run_serve ~jobs ~telemetry ~store () =
  section_header "Query daemon - dvf serve request throughput";
  let srv = Core.Serve.create ~telemetry ?store ~jobs () in
  Fun.protect
    ~finally:(fun () -> Core.Serve.shutdown srv)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      Core.Serve.warm srv;
      let warm_s = Unix.gettimeofday () -. t0 in
      Printf.printf "warmed %d workloads in %.3f s%s\n"
        (Core.Serve.warm_count srv) warm_s
        (match store with Some _ -> " (tape store on)" | None -> "");
      (* One batch mixes a replay-heavy op (verify: full tape walk over
         the verification set) and a model op (dvf: analytic
         profile) over every served workload — the shape a monitoring
         client would send — spread over the pool by handle_batch. *)
      let names = Core.Serve.workload_names srv in
      let batch =
        List.concat
          (List.mapi
             (fun i name ->
               List.map
                 (fun op ->
                   Printf.sprintf {|{"id":%d,"op":"%s","workload":"%s"}|} i op
                     name)
                 [ "verify"; "dvf" ])
             names)
      in
      (* Untimed pass so the measured rounds hit only warm state. *)
      ignore (Core.Serve.handle_batch srv batch);
      let rounds = 2 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to rounds do
        ignore (Core.Serve.handle_batch srv batch)
      done;
      let seconds = Unix.gettimeofday () -. t0 in
      let total = rounds * List.length batch in
      let rate = if seconds > 0.0 then float_of_int total /. seconds else 0.0 in
      Printf.printf
        "%d requests (%d batches of %d) in %.3f s = %.1f requests/sec (-j %d)\n"
        total rounds (List.length batch) seconds rate jobs;
      if Dvf_util.Telemetry.enabled telemetry then
        Dvf_util.Telemetry.set_gauge telemetry "bench/serve_requests_per_sec"
          rate)

(* --- Speed: analytical models vs cache simulation --- *)

let run_speed () =
  section_header "Evaluation cost: analytical models vs trace-driven simulation";
  let open Bechamel in
  let cache = Cachesim.Config.small_verification in
  let vm = Kernels.Vm.verification in
  let vm_spec = Kernels.Vm.spec vm in
  let cg_instance = Core.Workloads.verification_instance Core.Workloads.cg in
  let mc = Kernels.Monte_carlo.verification in
  let mc_spec = Kernels.Monte_carlo.spec mc in
  let tests =
    Test.make_grouped ~name:"dvf" ~fmt:"%s %s"
      [
        Test.make ~name:"model: VM streaming spec"
          (Staged.stage (fun () ->
               ignore
                 (Access_patterns.App_spec.main_memory_accesses ~cache vm_spec)));
        Test.make ~name:"model: CG composition spec"
          (Staged.stage (fun () ->
               ignore
                 (Access_patterns.App_spec.main_memory_accesses ~cache
                    cg_instance.Core.Workload.spec)));
        Test.make ~name:"model: MC random spec"
          (Staged.stage (fun () ->
               ignore
                 (Access_patterns.App_spec.main_memory_accesses ~cache mc_spec)));
        Test.make ~name:"simulation: VM trace + LRU cache"
          (Staged.stage (fun () ->
               let registry = Memtrace.Region.create () in
               let recorder = Memtrace.Recorder.create () in
               let c = Cachesim.Cache.create cache in
               ignore
                 (Memtrace.Recorder.add_sink recorder
                    (Memtrace.Recorder.cache_sink c));
               ignore (Kernels.Vm.run registry recorder vm)));
        Test.make ~name:"simulation: MC trace + LRU cache"
          (Staged.stage (fun () ->
               let registry = Memtrace.Region.create () in
               let recorder = Memtrace.Recorder.create () in
               let c = Cachesim.Cache.create cache in
               ignore
                 (Memtrace.Recorder.add_sink recorder
                    (Memtrace.Recorder.cache_sink c));
               ignore (Kernels.Monte_carlo.run registry recorder mc)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  let t =
    Dvf_util.Table.create
      ~title:
        "Time per evaluation (the paper: model cost is 'seconds' vs hours of \
         simulation/fault injection)"
      [ ("evaluation", Dvf_util.Table.Left); ("ns/run", Dvf_util.Table.Right) ]
  in
  List.iter
    (fun (name, est) ->
      Dvf_util.Table.add_row t [ name; Printf.sprintf "%.0f" est ])
    (List.sort (fun (_, a) (_, b) -> compare a b) !rows);
  Dvf_util.Table.print t

let sections =
  [
    ("tables", fun ~jobs:_ ~telemetry:_ ~store:_ () -> run_tables ());
    ("fig4", run_fig4);
    ("fig5", fun ~jobs:_ ~telemetry:_ ~store:_ () -> run_fig5 ());
    ( "fig6",
      fun ~jobs ~telemetry ~store:_ () -> run_fig6 ~jobs ~telemetry ()
    );
    ("fig7", fun ~jobs:_ ~telemetry:_ ~store:_ () -> run_fig7 ());
    ("sweep", run_sweep);
    ( "tape",
      fun ~jobs ~telemetry ~store:_ () -> run_tape ~jobs ~telemetry ()
    );
    ( "ablation",
      fun ~jobs:_ ~telemetry:_ ~store:_ () -> run_ablation () );
    ("sparse", fun ~jobs:_ ~telemetry:_ ~store:_ () -> run_sparse ());
    ( "component",
      fun ~jobs:_ ~telemetry:_ ~store:_ () -> run_component () );
    ( "inject",
      fun ~jobs ~telemetry ~store:_ () -> run_inject ~jobs ~telemetry ()
    );
    ( "chaos",
      fun ~jobs ~telemetry ~store:_ () -> run_chaos ~jobs ~telemetry ()
    );
    ("aspen", fun ~jobs:_ ~telemetry:_ ~store:_ () -> run_aspen ());
    ("speed", fun ~jobs:_ ~telemetry:_ ~store:_ () -> run_speed ());
    ( "serve",
      fun ~jobs ~telemetry ~store () -> run_serve ~jobs ~telemetry ~store ()
    );
  ]

(* BENCH_dvf.json: the machine-readable counterpart of the tables above.
   One flat header (command, cache geometry, jobs, wall-clock, trace
   events/sec) plus the whole telemetry document, so downstream tooling
   never parses the pretty-printed output. *)
let write_bench_snapshot ~command ~jobs ~store_dir ~wall_clock_sec
    telemetry =
  let module J = Dvf_util.Json in
  let module T = Dvf_util.Telemetry in
  let rate counter span =
    let ns = T.span_ns telemetry span in
    if Int64.compare ns 0L > 0 then
      J.Float
        (float_of_int (T.counter_value telemetry counter)
        /. (Int64.to_float ns /. 1e9))
    else J.Null
  in
  let replay_rate = rate "tape/replay_events" "verify/replay_total" in
  let gauge name =
    match T.gauge_value telemetry name with
    | Some v -> J.Float v
    | None -> J.Null
  in
  let gauge_int name =
    match T.gauge_value telemetry name with
    | Some v -> J.Int (int_of_float v)
    | None -> J.Null
  in
  let geometry =
    J.List
      (List.map
         (fun (c : Cachesim.Config.t) ->
           J.Obj
             [
               ("name", J.Str c.Cachesim.Config.name);
               ("associativity", J.Int c.Cachesim.Config.associativity);
               ("sets", J.Int c.Cachesim.Config.sets);
               ("line_bytes", J.Int c.Cachesim.Config.line);
               ("capacity_bytes", J.Int (Cachesim.Config.capacity c));
             ])
         (Cachesim.Config.verification_set @ Cachesim.Config.profiling_set))
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str "dvf-bench");
        ("schema_version", J.Int T.schema_version);
        ("command", J.Str command);
        ("geometry", geometry);
        ("jobs", J.Int jobs);
        ("wall_clock_sec", J.Float wall_clock_sec);
        ("events_per_sec", replay_rate);
        ("replay_events_per_sec", replay_rate);
        ("capture_events_per_sec", rate "tape/capture_events" "verify/capture_total");
        (* Sharded scaling and per-level hierarchy rates, measured by the
           tape section (gauges are absent — Null here — when that
           section did not run).  [sharded_events_per_sec] is the
           aggregate engine rate over all shard domains; the 1-domain
           baseline's aggregate and logical rates coincide. *)
        ("fused_events_per_sec", gauge "bench/fused_1dom_events_per_sec");
        ("sharded_events_per_sec", gauge "bench/sharded_scaling_events_per_sec");
        (* Partition-index era fields: the sharded engine's aggregate rate
           over pre-partitioned chunk views, the chunks those views let
           shard tasks skip outright, and the eager-vs-mmap load ratio
           measured by the tape section (Null when it did not run). *)
        ( "sharded_partitioned_events_per_sec",
          gauge "bench/sharded_partitioned_events_per_sec" );
        ( "tape_chunks_skipped",
          J.Int (T.counter_value telemetry "tape/chunks_skipped") );
        ("tape_load_mmap_speedup", gauge "bench/tape_load_mmap_speedup");
        ("shards", gauge_int "bench/shard_domains");
        ("levels", gauge_int "bench/hierarchy_levels");
        ("level1_accesses_per_sec", gauge "bench/level1_accesses_per_sec");
        ("level2_accesses_per_sec", gauge "bench/level2_accesses_per_sec");
        (* Residency-tracking replay (the timed walk behind `dvf verify
           --time-weighted` and `dvf windows`). *)
        ( "timed_replay_events_per_sec",
          gauge "bench/timed_replay_events_per_sec" );
        (* Persistent tape store traffic (zero when --tape-store is off)
           and the serve section's request throughput (Null when that
           section did not run). *)
        ( "tape_store",
          match store_dir with Some d -> J.Str d | None -> J.Null );
        ("store_hits", J.Int (T.counter_value telemetry "store/hits"));
        ("store_misses", J.Int (T.counter_value telemetry "store/misses"));
        ( "store_load_bytes",
          J.Int (T.counter_value telemetry "store/load_bytes") );
        ( "store_save_bytes",
          J.Int (T.counter_value telemetry "store/save_bytes") );
        ("serve_requests_per_sec", gauge "bench/serve_requests_per_sec");
        (* Chaos section rates (Null when that section did not run):
           component-kill campaign throughput and the service-graph
           synthesized-traffic replay rate. *)
        ("chaos_trials_per_sec", gauge "bench/chaos_trials_per_sec");
        ( "service_graph_replay_events_per_sec",
          gauge "bench/service_graph_replay_events_per_sec" );
        ("telemetry", T.to_json telemetry);
      ]
  in
  let oc = open_out "BENCH_dvf.json" in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "performance snapshot written to BENCH_dvf.json\n"

let usage_error message =
  Printf.eprintf "%s (available sections: %s)\n" message
    (String.concat " " (List.map fst sections));
  exit 1

let () =
  (* Parse [-j N]/[--jobs N] out of the argument list; the rest are section
     names.  Validate every section up front so a typo exits non-zero
     before anything runs, instead of failing halfway through a sweep. *)
  let jobs = ref (Dvf_util.Parallel.recommended_jobs ()) in
  let store_dir = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: value :: rest -> (
        match int_of_string_opt value with
        | Some n when n > 0 ->
            jobs := n;
            parse acc rest
        | _ -> usage_error (Printf.sprintf "bad job count %S" value))
    | [ ("-j" | "--jobs") ] -> usage_error "-j expects a positive integer"
    | "--tape-store" :: dir :: rest ->
        store_dir := Some dir;
        parse acc rest
    | [ "--tape-store" ] -> usage_error "--tape-store expects a directory"
    | name :: rest -> parse (name :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | names -> names
  in
  let runs =
    List.map
      (fun name ->
        match List.assoc_opt name sections with
        | Some run -> run
        | None -> usage_error (Printf.sprintf "unknown section '%s'" name))
      requested
  in
  let telemetry = Dvf_util.Telemetry.create () in
  let store =
    Option.map
      (fun dir -> Memtrace.Tape_store.create ~telemetry ~dir ())
      !store_dir
  in
  let start = Unix.gettimeofday () in
  List.iter (fun run -> run ~jobs:!jobs ~telemetry ~store ()) runs;
  write_bench_snapshot
    ~command:(String.concat " " (Array.to_list Sys.argv))
    ~jobs:!jobs ~store_dir:!store_dir
    ~wall_clock_sec:(Unix.gettimeofday () -. start)
    telemetry
