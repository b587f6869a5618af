(* Perf roofline, Workloads metadata, Verify/Profile drivers and the
   Experiments figures. *)

module M = Dvf_util.Maths

let checkf ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.12g got %.12g" msg expected actual)
    true
    (M.approx_equal ~eps expected actual)

(* --- Perf --- *)

let test_roofline_compute_bound () =
  let m = Core.Perf.make_machine ~name:"m" ~peak_flops:1e9 ~memory_bandwidth:1e12 in
  let cache = Cachesim.Config.profiling_4mb in
  (* 1e9 flops at 1 Gflop/s = 1 s; memory side is negligible. *)
  checkf "compute bound" 1.0
    (Core.Perf.execution_time m ~cache ~flops:1_000_000_000 ~n_ha:10.0)

let test_roofline_memory_bound () =
  let m = Core.Perf.make_machine ~name:"m" ~peak_flops:1e15 ~memory_bandwidth:64e6 in
  let cache = Cachesim.Config.profiling_4mb in
  (* 1e6 line transfers x 64 B at 64 MB/s = 1 s. *)
  checkf "memory bound" 1.0
    (Core.Perf.execution_time m ~cache ~flops:10 ~n_ha:1_000_000.0)

let test_roofline_is_max () =
  let m = Core.Perf.make_machine ~name:"m" ~peak_flops:1e9 ~memory_bandwidth:64e6 in
  let cache = Cachesim.Config.profiling_4mb in
  let t = Core.Perf.execution_time m ~cache ~flops:500_000_000 ~n_ha:500_000.0 in
  checkf "max of both" (Float.max 0.5 0.5) t

let test_perf_validation () =
  Alcotest.check_raises "bad flops"
    (Invalid_argument "Perf.make_machine: peak_flops <= 0") (fun () ->
      ignore (Core.Perf.make_machine ~name:"x" ~peak_flops:0.0 ~memory_bandwidth:1.0))

(* --- Workloads --- *)

let test_table2_metadata () =
  Alcotest.(check bool) "at least the six kernels" true
    (List.length (Core.Workloads.all ()) >= 6);
  Alcotest.(check (list string)) "CG structures" [ "A"; "x"; "p"; "r" ]
    Core.Workloads.cg.Core.Workload.major_structures;
  Alcotest.(check string) "MC benchmark" "XSBench"
    Core.Workloads.mc.Core.Workload.example_benchmark

let test_instances_consistent () =
  (* Spec structure names must cover Table II's major structures. *)
  List.iter
    (fun (w : Core.Workload.t) ->
      let instance = Core.Workloads.verification_instance w in
      let spec_names =
        List.map
          (fun (s : Access_patterns.App_spec.structure) ->
            s.Access_patterns.App_spec.name)
          instance.Core.Workload.spec.Access_patterns.App_spec.structures
      in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (w.Core.Workload.name ^ " declares " ^ name)
            true (List.mem name spec_names))
        w.Core.Workload.major_structures;
      Alcotest.(check bool)
        (w.Core.Workload.name ^ " has flops")
        true
        (instance.Core.Workload.flops > 0))
    [ Core.Workloads.vm; Core.Workloads.nb; Core.Workloads.mc ]

(* --- Verify --- *)

let test_verify_vm () =
  let workloads = Core.Workloads.[ vm; cg; nb; mg; ft; mc ] in
  let rows = Core.Verify.run_all ~workloads () in
  let vm_rows =
    List.filter (fun (r : Core.Verify.row) -> r.Core.Verify.workload = "VM") rows
  in
  (* 3 structures x 2 caches. *)
  Alcotest.(check int) "row count" 6 (List.length vm_rows);
  List.iter
    (fun (r : Core.Verify.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s within 15%%" r.Core.Verify.structure
           r.Core.Verify.cache.Cachesim.Config.name)
        true
        (Core.Verify.error r <= 0.15))
    vm_rows;
  (* Fig. 4's headline: every kernel's aggregate traffic within 15 % on
     both verification caches. *)
  List.iter
    (fun (w : Core.Workload.t) ->
      List.iter
        (fun cache ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s aggregate within 15%%" w.Core.Workload.name
               cache.Cachesim.Config.name)
            true
            (Core.Verify.workload_error ~rows w.Core.Workload.name cache <= 0.15))
        Cachesim.Config.verification_set)
    workloads

(* --- Profile --- *)

let test_profile_vm_shapes () =
  let rows = Core.Profile.run_all ~workloads:[ Core.Workloads.vm ] () in
  (* 4 caches x (3 structures + 1 aggregate). *)
  Alcotest.(check int) "row count" 16 (List.length rows);
  let dvf structure cache =
    (List.find
       (fun (r : Core.Profile.row) ->
         r.Core.Profile.structure = structure
         && r.Core.Profile.cache.Cachesim.Config.name = cache)
       rows)
      .Core.Profile.dvf
  in
  (* Fig. 5(a): A dominates B and C on every cache. *)
  List.iter
    (fun cache ->
      Alcotest.(check bool) ("A > B on " ^ cache) true (dvf "A" cache > dvf "B" cache);
      Alcotest.(check bool) ("A > C on " ^ cache) true (dvf "A" cache > dvf "C" cache))
    [ "16KB"; "128KB"; "768KB"; "4MB" ];
  (* The aggregate is the sum of the structures. *)
  checkf ~eps:1e-9 "aggregate"
    (dvf "A" "4MB" +. dvf "B" "4MB" +. dvf "C" "4MB")
    (dvf "VM" "4MB")

let test_profile_ft_cliff () =
  let rows =
    Core.Profile.run_all ~workloads:Core.Workloads.[ ft; cg; nb; mc ] ()
  in
  (* A workload's aggregate DVF_a on one cache. *)
  let dvf workload cache =
    (List.find
       (fun (r : Core.Profile.row) ->
         r.Core.Profile.workload = workload
         && r.Core.Profile.structure = workload
         && r.Core.Profile.cache.Cachesim.Config.name = cache)
       rows)
      .Core.Profile.dvf
  in
  (* Fig. 5(e): sudden jump once the cache is smaller than the working
     set (32 KB signal vs 16 KB cache), flat-ish among the larger caches. *)
  Alcotest.(check bool) "cliff at 16KB" true
    (dvf "FT" "16KB" > 20.0 *. dvf "FT" "128KB");
  Alcotest.(check bool) "no cliff between 128KB and 768KB" true
    (dvf "FT" "128KB" < 20.0 *. dvf "FT" "768KB");
  (* Fig. 5's cross-kernel observations: CG's large working set and long
     run put it orders of magnitude above FT; MC's many lookups put it
     far above NB on the smallest cache. *)
  Alcotest.(check bool) "CG >> FT at 4MB" true
    (dvf "CG" "4MB" > 100.0 *. dvf "FT" "4MB");
  Alcotest.(check bool) "MC >> NB at 16KB" true
    (dvf "MC" "16KB" > 100.0 *. dvf "NB" "16KB")

(* --- Experiments --- *)

let test_fig6_crossover () =
  let rows = Core.Experiments.fig6 ~sizes:[ 100; 400; 800 ] () in
  let r100 = List.nth rows 0 and r800 = List.nth rows 2 in
  (* Small: PCG no better (paper: slightly worse, "pretty close"). *)
  Alcotest.(check bool) "PCG >= CG at n=100" true
    (r100.Core.Experiments.pcg_dvf >= r100.Core.Experiments.cg_dvf *. 0.99);
  (* Large: PCG clearly better. *)
  Alcotest.(check bool) "PCG < CG at n=800" true
    (r800.Core.Experiments.pcg_dvf < r800.Core.Experiments.cg_dvf);
  (* And the advantage grows with n. *)
  let ratio (r : Core.Experiments.fig6_row) =
    r.Core.Experiments.pcg_dvf /. r.Core.Experiments.cg_dvf
  in
  Alcotest.(check bool) "ratio improves" true (ratio r800 < ratio r100)

let test_fig7_shape () =
  let rows = Core.Experiments.fig7 ~steps:30 () in
  Alcotest.(check int) "31 points" 31 (List.length rows);
  let s_opt, c_opt = Core.Experiments.fig7_optimum rows in
  checkf ~eps:1e-6 "secded optimum 5%" 0.05 s_opt;
  checkf ~eps:1e-6 "chipkill optimum 5%" 0.05 c_opt;
  List.iter
    (fun (r : Core.Experiments.fig7_row) ->
      Alcotest.(check bool) "chipkill below secded" true
        (r.Core.Experiments.chipkill_dvf <= r.Core.Experiments.secded_dvf +. 1e-12))
    rows

let test_cache_sweep_ft_cliff () =
  let instance = Core.Workloads.profiling_instance Core.Workloads.ft in
  let rows = Core.Experiments.cache_sweep instance in
  (* N_ha is non-increasing in capacity, so with T fixed per row the DVF
     never *rises* with a bigger cache by more than the time term moves;
     check the strong property on N_ha via monotone DVF here since FT is
     memory-bound throughout. *)
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "monotone at %d" b.Core.Experiments.capacity)
          true
          (b.Core.Experiments.dvf_a <= a.Core.Experiments.dvf_a +. 1e-9);
        check rest
    | _ -> ()
  in
  check rows;
  (* The 32 KB signal cliff sits between 16 KB and 64 KB. *)
  let dvf cap =
    (List.find (fun r -> r.Core.Experiments.capacity = cap) rows)
      .Core.Experiments.dvf_a
  in
  Alcotest.(check bool) "cliff" true (dvf 16384 > 10.0 *. dvf 65536)

let test_static_tables_render () =
  List.iter
    (fun table ->
      Alcotest.(check bool) "non-empty render" true
        (String.length (Dvf_util.Table.render (table ())) > 100))
    Core.Experiments.[ table2; table4; table5; table6; table7 ]

let suite =
  [
    Alcotest.test_case "roofline compute bound" `Quick
      test_roofline_compute_bound;
    Alcotest.test_case "roofline memory bound" `Quick test_roofline_memory_bound;
    Alcotest.test_case "roofline is max" `Quick test_roofline_is_max;
    Alcotest.test_case "perf validation" `Quick test_perf_validation;
    Alcotest.test_case "Table II metadata" `Quick test_table2_metadata;
    Alcotest.test_case "instances consistent" `Quick test_instances_consistent;
    Alcotest.test_case "verify VM" `Quick test_verify_vm;
    Alcotest.test_case "profile VM shapes" `Quick test_profile_vm_shapes;
    Alcotest.test_case "profile FT cliff" `Quick test_profile_ft_cliff;
    Alcotest.test_case "Fig.6 crossover" `Slow test_fig6_crossover;
    Alcotest.test_case "Fig.7 shape" `Quick test_fig7_shape;
    Alcotest.test_case "cache sweep FT cliff" `Quick test_cache_sweep_ft_cliff;
    Alcotest.test_case "static tables render" `Quick test_static_tables_render;
  ]
