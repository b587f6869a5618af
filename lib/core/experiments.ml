module Table = Dvf_util.Table

type fig6_row = {
  n : int;
  cg_iterations : int;
  pcg_iterations : int;
  cg_time : float;
  pcg_time : float;
  cg_dvf : float;
  pcg_dvf : float;
}

module Telemetry = Dvf_util.Telemetry

(* Sweep points are independent (each builds its own solvers and specs),
   so both fig6 and cache_sweep fan out over one domain pool per call,
   [jobs] wide.  [jobs = 1] (or less) makes a one-worker pool, which
   maps in the calling domain; [Pool.map_list] preserves order either
   way. *)
let with_sweep_pool ?jobs ~telemetry f =
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Dvf_util.Parallel.recommended_jobs ()
  in
  Dvf_util.Parallel.with_pool ~telemetry ~jobs f

(* Each point is timed under ["<label>/point"] and counted under
   ["<label>/points"]; the whole sweep's wall-clock lands in
   ["<label>/total"]. *)
let sweep_map ~telemetry ~label pool f xs =
  let f =
    if not (Telemetry.enabled telemetry) then f
    else fun x ->
      Telemetry.add telemetry (label ^ "/points");
      Telemetry.span telemetry (label ^ "/point") (fun () -> f x)
  in
  let t0 = Telemetry.now_ns telemetry in
  let rows = Dvf_util.Parallel.Pool.map_list pool f xs in
  if Telemetry.enabled telemetry then
    Telemetry.time_ns telemetry (label ^ "/total")
      (Int64.sub (Telemetry.now_ns telemetry) t0);
  rows

let fig6 ?jobs ?(telemetry = Telemetry.null) ?(machine = Perf.default_machine)
    ?(fit = Ecc.fit Ecc.No_ecc)
    ?(cache = Cachesim.Config.profiling_4mb)
    ?(sizes = [ 100; 200; 300; 400; 500; 600; 700; 800 ]) ?preconditioner () =
  with_sweep_pool ?jobs ~telemetry @@ fun pool ->
  sweep_map ~telemetry ~label:"fig6" pool
    (fun n ->
      let cg_params = Kernels.Cg.make_params ~max_iterations:5000 ~tolerance:1e-8 n in
      let pcg_params =
        Kernels.Pcg.make_params ~max_iterations:5000 ~tolerance:1e-8
          ?preconditioner n
      in
      let cg_result = Kernels.Cg.run_untraced cg_params in
      let pcg_result = Kernels.Pcg.run_untraced pcg_params in
      let cg_spec =
        Kernels.Cg.spec ~iterations:cg_result.Kernels.Cg.iterations cg_params
      in
      let pcg_spec =
        Kernels.Pcg.spec ~iterations:pcg_result.Kernels.Pcg.iterations pcg_params
      in
      let cg =
        Dvf.of_spec ~machine ~cache ~fit ~flops:cg_result.Kernels.Cg.flops
          cg_spec
      in
      let pcg =
        Dvf.of_spec ~machine ~cache ~fit ~flops:pcg_result.Kernels.Pcg.flops
          pcg_spec
      in
      {
        n;
        cg_iterations = cg_result.Kernels.Cg.iterations;
        pcg_iterations = pcg_result.Kernels.Pcg.iterations;
        cg_time = cg.Dvf.time;
        pcg_time = pcg.Dvf.time;
        cg_dvf = cg.Dvf.total;
        pcg_dvf = pcg.Dvf.total;
      })
    sizes

let fig6_table rows =
  let t =
    Table.create ~title:"Fig. 6 - CG vs PCG (DVF over problem size)"
      [
        ("n", Table.Right); ("CG iters", Table.Right);
        ("PCG iters", Table.Right); ("CG T(s)", Table.Right);
        ("PCG T(s)", Table.Right); ("CG DVF", Table.Right);
        ("PCG DVF", Table.Right); ("winner", Table.Left);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_int r.n; Table.cell_int r.cg_iterations;
          Table.cell_int r.pcg_iterations; Table.cell_float r.cg_time;
          Table.cell_float r.pcg_time; Table.cell_float r.cg_dvf;
          Table.cell_float r.pcg_dvf;
          (if r.pcg_dvf < r.cg_dvf then "PCG" else "CG");
        ])
    rows;
  t

type fig7_row = {
  degradation : float;
  secded_dvf : float;
  chipkill_dvf : float;
}

let fig7 ?(machine = Perf.default_machine)
    ?(cache = Cachesim.Config.profiling_4mb) ?(steps = 30)
    ?(max_degradation = 0.30) () =
  let instance = Workloads.profiling_instance Workloads.vm in
  let base =
    Dvf.of_spec ~machine ~cache ~fit:(Ecc.fit Ecc.No_ecc)
      ~flops:instance.Workload.flops instance.Workload.spec
  in
  List.init (steps + 1) (fun i ->
      let degradation =
        max_degradation *. float_of_int i /. float_of_int steps
      in
      let dvf scheme =
        (Ecc.protected_dvf ~degradation scheme base).Dvf.total
      in
      { degradation; secded_dvf = dvf Ecc.Secded; chipkill_dvf = dvf Ecc.Chipkill })

let fig7_table rows =
  let t =
    Table.create
      ~title:"Fig. 7 - Impact of ECC on DVF (Vector Multiplication)"
      [
        ("degradation %", Table.Right); ("SECDED DVF", Table.Right);
        ("Chipkill DVF", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Printf.sprintf "%.0f" (100.0 *. r.degradation);
          Table.cell_float r.secded_dvf; Table.cell_float r.chipkill_dvf;
        ])
    rows;
  t

let fig7_optimum rows =
  let best get =
    fst
      (List.fold_left
         (fun (bd, bv) r -> if get r < bv then (r.degradation, get r) else (bd, bv))
         (0.0, infinity) rows)
  in
  (best (fun r -> r.secded_dvf), best (fun r -> r.chipkill_dvf))

type sweep_row = {
  capacity : int;
  sweep_cache : Cachesim.Config.t;
  dvf_a : float;
  n_ha : float;
  sim_n_ha : float option;
}

(* Trace-driven half of a simulated sweep: one all-geometry walk
   ([Cachesim.Sweep]) per shard over the capture's tape, at the replay
   engine's width, the per-shard statistics merged in shard order — so
   totals are bit-identical at any [jobs].  Returns each cache's
   simulated total main-memory accesses (misses + writebacks), in
   [caches] order. *)
let simulate_totals ~pool ~telemetry ~caches (cap : Verify.capture) =
  Telemetry.span telemetry
    (Printf.sprintf "cache_sweep/%s/replay"
       cap.Verify.instance.Workload.workload)
  @@ fun () ->
  let width =
    Verify.shard_width ~jobs:(Dvf_util.Parallel.Pool.size pool) caches
  in
  let walk shard =
    let sweep = Cachesim.Sweep.create caches in
    Memtrace.Tape.replay_view_sweep
      (Memtrace.Tape.view cap.Verify.tape ~shards:width ~shard)
      sweep;
    Cachesim.Sweep.flush sweep;
    Cachesim.Sweep.stats sweep
  in
  let per_shard =
    Dvf_util.Parallel.Pool.map_list pool walk (List.init width Fun.id)
  in
  if Telemetry.enabled telemetry then begin
    Telemetry.add telemetry
      ~n:(Memtrace.Tape.length cap.Verify.tape * List.length caches)
      "tape/replay_events";
    Telemetry.add telemetry ~n:width "shard/tasks";
    Telemetry.set_gauge telemetry "shard/count" (float_of_int width)
  end;
  List.mapi
    (fun i _ ->
      float_of_int
        (Cachesim.Stats.total_main_memory_accesses
           (Cachesim.Stats.sum (List.map (fun s -> List.nth s i) per_shard))))
    caches

let cache_sweep ?jobs ?(telemetry = Telemetry.null)
    ?(machine = Perf.default_machine) ?(fit = Ecc.fit Ecc.No_ecc) ?(line = 64)
    ?(associativity = 8) ?capacities ?(simulate = false) ?store ?capture
    (instance : Workload.instance) =
  let capacities =
    match capacities with
    | Some c -> c
    | None ->
        let rec doubling acc c =
          if c > 16 * 1024 * 1024 then List.rev acc else doubling (c :: acc) (2 * c)
        in
        doubling [] 4096
  in
  let caches =
    List.map
      (fun capacity ->
        let sets = capacity / (associativity * line) in
        if sets <= 0 then
          invalid_arg "Experiments.cache_sweep: capacity too small";
        Cachesim.Config.make
          ~name:(Format.asprintf "%a" Dvf_util.Units.pp_bytes capacity)
          ~associativity ~sets ~line)
      capacities
  in
  with_sweep_pool ?jobs ~telemetry @@ fun pool ->
  let sim_totals =
    if not simulate then List.map (fun _ -> None) caches
    else
      let cap =
        match capture with
        | Some c -> c
        | None -> Verify.capture ~telemetry ?store instance
      in
      List.map
        (fun v -> Some v)
        (simulate_totals ~pool ~telemetry ~caches cap)
  in
  let points = List.combine (List.combine capacities caches) sim_totals in
  sweep_map ~telemetry ~label:"cache_sweep" pool
    (fun ((capacity, cache), sim_n_ha) ->
      let app =
        Dvf.of_spec ~machine ~cache ~fit ~flops:instance.Workload.flops
          instance.Workload.spec
      in
      {
        capacity;
        sweep_cache = cache;
        dvf_a = app.Dvf.total;
        n_ha = app.Dvf.n_ha;
        sim_n_ha;
      })
    points

let cache_sweep_table ~label rows =
  let simulated = List.exists (fun r -> r.sim_n_ha <> None) rows in
  let t =
    Table.create ~title:(Printf.sprintf "DVF_a vs cache capacity: %s" label)
      ([ ("capacity", Table.Right); ("DVF_a", Table.Right);
         ("N_ha model", Table.Right) ]
      @ if simulated then [ ("N_ha sim", Table.Right) ] else [])
  in
  List.iter
    (fun r ->
      Table.add_row t
        ([
           Format.asprintf "%a" Dvf_util.Units.pp_bytes r.capacity;
           Table.cell_float r.dvf_a;
           Table.cell_float r.n_ha;
         ]
        @
        match r.sim_n_ha with
        | Some v when simulated -> [ Table.cell_float v ]
        | None when simulated -> [ "-" ]
        | _ -> []))
    rows;
  t

let simulated_sweeps ?jobs () =
  List.map
    (fun w ->
      let instance = Workloads.profiling_instance w in
      cache_sweep_table ~label:instance.Workload.label
        (cache_sweep ?jobs ~simulate:true instance))
    Workloads.[ vm; ft; mc ]

let ablation () =
  let cache = Cachesim.Config.small_verification in
  (* (a) Eq. 8 allocation model: Bernoulli (paper-literal) vs Uniform
     (contiguous layout) against the LRU simulator on a fitting mix:
     the misses of re-reading A's F_A lines after B's F_B. *)
  let lru_misses ~fa ~fb =
    let line = cache.Cachesim.Config.line in
    let c = Cachesim.Cache.create cache in
    let read_a () =
      for b = 0 to fa - 1 do
        Cachesim.Cache.access c ~owner:1 ~write:false ~addr:(b * line) ~size:1
      done
    in
    read_a ();
    for b = 0 to fb - 1 do
      Cachesim.Cache.access c ~owner:2 ~write:false
        ~addr:((1 lsl 24) + (b * line)) ~size:1
    done;
    let misses () =
      let snap = Cachesim.Stats.snapshot (Cachesim.Cache.stats c) in
      (Cachesim.Stats.Snapshot.owner snap 1).Cachesim.Stats.misses
    in
    let before = misses () in
    read_a ();
    misses () - before
  in
  let t =
    Table.create
      ~title:"(a) Reuse-model allocation: Bernoulli (Eq. 8 literal) vs Uniform"
      [
        ("F_A", Table.Right); ("F_B", Table.Right); ("LRU sim", Table.Right);
        ("bernoulli", Table.Right); ("uniform", Table.Right);
      ]
  in
  List.iter
    (fun (fa, fb) ->
      let model alloc =
        Access_patterns.Reuse.misses_per_reuse ~alloc ~cache ~fa ~fb
          ~scenario:`Lru_protected ()
      in
      Table.add_row t
        [
          string_of_int fa; string_of_int fb;
          string_of_int (lru_misses ~fa ~fb);
          Printf.sprintf "%.0f" (model `Bernoulli);
          Printf.sprintf "%.0f" (model `Uniform);
        ])
    [ (100, 50); (128, 128); (64, 256); (256, 256) ];
  (* (b) Template distance: stack (LRU-faithful) vs raw (paper-literal)
     on the FT reference stream. *)
  let ft_accesses distance =
    let spec = Kernels.Fft.spec (Kernels.Fft.make_params 2048) in
    match (List.hd spec.Access_patterns.App_spec.structures).pattern with
    | Some (Access_patterns.Pattern.Templated tpl) ->
        Access_patterns.Template.main_memory_accesses ~cache
          { tpl with Access_patterns.Template.distance }
    | _ -> assert false
  in
  (* (c) Random-model contiguity: the paper's Belm = XE upper bound
     (runs of one element) vs the run-length-aware estimate, against
     the MC simulation. *)
  let mc = Workloads.verification_instance Workloads.mc in
  let simulated, contiguity_aware =
    Verify.workload_totals
      ~rows:(Verify.capture_rows (Verify.capture mc))
      mc.Workload.workload cache
  in
  let paper_literal =
    let single (s : Access_patterns.App_spec.structure) =
      match s.pattern with
      | Some (Access_patterns.Pattern.Random r) ->
          {
            s with
            pattern =
              Some
                (Access_patterns.Pattern.Random
                   { r with Access_patterns.Random_access.run_length = 1 });
          }
      | _ -> s
    in
    let spec = mc.Workload.spec in
    List.fold_left
      (fun acc (_, v) -> acc +. v)
      0.0
      (Access_patterns.App_spec.main_memory_accesses ~cache
         { spec with structures = List.map single spec.structures })
  in
  (* (d) PCG preconditioner storage: vector vs dense matrix at n = 800. *)
  let at_800 preconditioner =
    List.hd (fig6 ~jobs:1 ~sizes:[ 800 ] ~preconditioner ())
  in
  let vector = at_800 `Vector and dense = at_800 `Dense_matrix in
  ( t,
    [
      Printf.sprintf
        "(b) FT 2^11 template on the 8KB cache: stack distance %.0f \
         accesses, raw distance %.0f"
        (ft_accesses `Stack) (ft_accesses `Raw);
      Printf.sprintf
        "(c) MC on the 8KB cache: simulated %.0f; paper-literal model %.0f; \
         contiguity-aware model %.0f"
        simulated paper_literal contiguity_aware;
      Printf.sprintf
        "(d) PCG at n=800: vector-Jacobi DVF %.4g, dense-matrix-M DVF %.4g, \
         plain CG %.4g"
        vector.pcg_dvf dense.pcg_dvf vector.cg_dvf;
      "    (the dense auxiliary matrix inverts the Fig. 6 conclusion)";
    ] )

let sparse_cg () =
  (* Fig. 4's methodology on the CSR kernel: one capture, replayed into
     both verification caches, against the model's totals. *)
  let p =
    Kernels.Sparse_cg.make_params ~max_iterations:8 ~tolerance:0.0
      (`Laplacian_2d 64)
  in
  let run = Kernels.Sparse_cg.run_untraced p in
  let instance =
    {
      Workload.workload = "sparse CG";
      label = "sparse CG 64x64";
      spec = Kernels.Sparse_cg.spec ~iterations:run.Kernels.Sparse_cg.iterations p;
      flops = run.Kernels.Sparse_cg.flops;
      trace = (fun registry tape -> ignore (Kernels.Sparse_cg.run registry tape p));
    }
  in
  let rows = Verify.capture_rows (Verify.capture instance) in
  let t =
    Table.create ~title:"Sparse CG model verification (Fig. 4 methodology)"
      [
        ("cache", Table.Left); ("simulated", Table.Right);
        ("modeled", Table.Right); ("error %", Table.Right);
      ]
  in
  List.iter
    (fun cache ->
      let simulated, modeled =
        Verify.workload_totals ~rows instance.Workload.workload cache
      in
      Table.add_row t
        [
          cache.Cachesim.Config.name; Printf.sprintf "%.0f" simulated;
          Printf.sprintf "%.0f" modeled;
          Printf.sprintf "%.1f"
            (100.0 *. Dvf_util.Maths.rel_error ~expected:simulated ~actual:modeled);
        ])
    Cachesim.Config.verification_set;
  (* Storage format: the same tridiagonal system, dense vs CSR, on
     Fig. 6's cache with no ECC. *)
  let n = 800 and iterations = 20 in
  let dvf_4mb ~flops spec =
    (Dvf.of_spec ~machine:Perf.default_machine
       ~cache:Cachesim.Config.profiling_4mb ~fit:(Ecc.fit Ecc.No_ecc) ~flops
       spec)
      .Dvf.total
  in
  let dense = Kernels.Cg.spec ~iterations (Kernels.Cg.make_params n) in
  let sparse_params = Kernels.Sparse_cg.make_params (`Tridiagonal n) in
  let sparse = Kernels.Sparse_cg.spec ~iterations sparse_params in
  let nnz = (Kernels.Sparse_cg.run_untraced sparse_params).Kernels.Sparse_cg.nnz in
  ( t,
    [
      Printf.sprintf
        "Same tridiagonal system, %d iterations: dense DVF_a %.4g, CSR DVF_a %.4g"
        iterations
        (dvf_4mb ~flops:(iterations * 4 * n * n) dense)
        (dvf_4mb ~flops:(iterations * 4 * nnz) sparse);
      Printf.sprintf
        "(the sparse format carries %d nonzeros instead of %d entries — the"
        nnz (n * n);
      "working-set term of Eq. 1 rewards compact storage)";
    ] )

let table2 () =
  let t =
    Table.create ~title:"Table II - Six numerical algorithms"
      [
        ("algorithm", Table.Left); ("class", Table.Left);
        ("major structures", Table.Left); ("patterns", Table.Left);
        ("example benchmark", Table.Left);
      ]
  in
  List.iter
    (fun (w : Workload.t) ->
      Table.add_row t
        [
          w.Workload.name; w.Workload.computational_class;
          String.concat ", " w.Workload.major_structures;
          w.Workload.pattern_classes; w.Workload.example_benchmark;
        ])
    (Workloads.all ());
  t

let table4 () =
  let t =
    Table.create ~title:"Table IV - Cache configurations"
      [
        ("cache", Table.Left); ("CA", Table.Right); ("NA", Table.Right);
        ("CL", Table.Right); ("Cc", Table.Right);
      ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          c.Cachesim.Config.name;
          Table.cell_int c.Cachesim.Config.associativity;
          Table.cell_int c.Cachesim.Config.sets;
          Table.cell_int c.Cachesim.Config.line;
          Format.asprintf "%a" Dvf_util.Units.pp_bytes
            (Cachesim.Config.capacity c);
        ])
    (Cachesim.Config.verification_set @ Cachesim.Config.profiling_set);
  t

let input_table ~title mode =
  let t =
    Table.create ~title [ ("application", Table.Left); ("input size", Table.Left) ]
  in
  List.iter
    (fun (w : Workload.t) ->
      Table.add_row t [ w.Workload.name; w.Workload.input_size mode ])
    (Workloads.all ());
  t

let table5 () =
  input_table ~title:"Table V - Application input size (verification)"
    `Verification

let table6 () =
  input_table ~title:"Table VI - Application input size (profiling)" `Profiling

let table7 () =
  let t =
    Table.create ~title:"Table VII - Error rate with ECC in place"
      [ ("ECC protection", Table.Left); ("error rate (FIT/Mbit)", Table.Right) ]
  in
  List.iter
    (fun s -> Table.add_row t [ Ecc.name s; Table.cell_float (Ecc.fit s) ])
    Ecc.all;
  t
