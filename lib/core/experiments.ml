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
   so both fig6 and cache_sweep fan out over a domain pool.  [jobs = 1]
   (or an empty pool budget) degrades to List.map in the calling domain;
   Parallel.map_list preserves order either way.  Each point is timed
   under ["<label>/point"] and counted under ["<label>/points"]; the whole
   sweep's wall-clock lands in ["<label>/total"]. *)
let sweep_map ?jobs ?(telemetry = Telemetry.null) ~label f xs =
  let jobs =
    match jobs with
    | Some j -> j
    | None -> Dvf_util.Parallel.recommended_jobs ()
  in
  let f =
    if not (Telemetry.enabled telemetry) then f
    else fun x ->
      Telemetry.add telemetry (label ^ "/points");
      Telemetry.span telemetry (label ^ "/point") (fun () -> f x)
  in
  let t0 = Telemetry.now_ns telemetry in
  let rows =
    if jobs <= 1 then List.map f xs
    else Dvf_util.Parallel.map_list ~telemetry ~jobs f xs
  in
  if Telemetry.enabled telemetry then
    Telemetry.time_ns telemetry (label ^ "/total")
      (Int64.sub (Telemetry.now_ns telemetry) t0);
  rows

let fig6 ?jobs ?telemetry ?(machine = Perf.default_machine)
    ?(fit = Ecc.fit Ecc.No_ecc)
    ?(cache = Cachesim.Config.profiling_4mb)
    ?(sizes = [ 100; 200; 300; 400; 500; 600; 700; 800 ]) () =
  sweep_map ?jobs ?telemetry ~label:"fig6"
    (fun n ->
      let cg_params = Kernels.Cg.make_params ~max_iterations:5000 ~tolerance:1e-8 n in
      let pcg_params =
        Kernels.Pcg.make_params ~max_iterations:5000 ~tolerance:1e-8 n
      in
      let cg_result = Kernels.Cg.run_untraced cg_params in
      let pcg_result = Kernels.Pcg.run_untraced pcg_params in
      let cg_spec =
        Kernels.Cg.spec ~iterations:cg_result.Kernels.Cg.iterations cg_params
      in
      let pcg_spec =
        Kernels.Pcg.spec ~iterations:pcg_result.Kernels.Pcg.iterations pcg_params
      in
      let cg_time =
        Perf.app_time machine ~cache ~flops:cg_result.Kernels.Cg.flops cg_spec
      in
      let pcg_time =
        Perf.app_time machine ~cache ~flops:pcg_result.Kernels.Pcg.flops pcg_spec
      in
      let cg_dvf = (Dvf.of_spec ~cache ~fit ~time:cg_time cg_spec).Dvf.total in
      let pcg_dvf =
        (Dvf.of_spec ~cache ~fit ~time:pcg_time pcg_spec).Dvf.total
      in
      {
        n;
        cg_iterations = cg_result.Kernels.Cg.iterations;
        pcg_iterations = pcg_result.Kernels.Pcg.iterations;
        cg_time;
        pcg_time;
        cg_dvf;
        pcg_dvf;
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
  let spec = instance.Workload.spec in
  let base_time =
    Perf.app_time machine ~cache ~flops:instance.Workload.flops spec
  in
  List.init (steps + 1) (fun i ->
      let degradation =
        max_degradation *. float_of_int i /. float_of_int steps
      in
      let dvf scheme =
        (Ecc.protected_dvf ~cache ~base_time ~degradation scheme spec).Dvf.total
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

(* Trace-driven half of a simulated sweep: the capture's tape replayed
   into every sweep geometry through the verification replay engine
   (set-sharded walks, each cache clamping the shard count to its own set
   count, statistics merged in shard order) — totals are bit-identical
   at any [jobs].  Returns each cache's simulated total main-memory
   accesses (misses + writebacks), in [caches] order. *)
let simulate_totals ~jobs ~telemetry ~caches cap =
  Telemetry.span telemetry
    (Printf.sprintf "cache_sweep/%s/replay"
       cap.Verify.instance.Workload.workload)
    (fun () ->
      List.map
        (fun stats ->
          float_of_int
            (Cachesim.Stats.Snapshot.total_main_memory
               (Cachesim.Stats.snapshot stats)))
        (Verify.capture_stats ~telemetry ~jobs ~caches cap))

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
  let effective_jobs =
    match jobs with
    | Some j -> j
    | None -> Dvf_util.Parallel.recommended_jobs ()
  in
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
        (simulate_totals ~jobs:effective_jobs ~telemetry ~caches cap)
  in
  let points = List.combine (List.combine capacities caches) sim_totals in
  sweep_map ?jobs ~telemetry ~label:"cache_sweep"
    (fun ((capacity, cache), sim_n_ha) ->
      let spec = instance.Workload.spec in
      let time = Perf.app_time machine ~cache ~flops:instance.Workload.flops spec in
      let n_ha =
        List.fold_left
          (fun acc (_, v) -> acc +. v)
          0.0
          (Access_patterns.App_spec.main_memory_accesses ~cache spec)
      in
      {
        capacity;
        sweep_cache = cache;
        dvf_a = (Dvf.of_spec ~cache ~fit ~time spec).Dvf.total;
        n_ha;
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
