(* Cache-component DVF (the paper's SS I generalization) and the
   reference-count estimators behind it. *)

module M = Dvf_util.Maths
module Ap = Access_patterns

let checkf ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.12g got %.12g" msg expected actual)
    true
    (M.approx_equal ~eps expected actual)

let cache = Cachesim.Config.small_verification

let test_pattern_references () =
  checkf "stream" 100.0
    (Ap.Pattern.references
       (Ap.Pattern.Stream (Ap.Streaming.make ~elem_size:8 ~elements:100 ~stride:1 ())));
  checkf "strided stream" 25.0
    (Ap.Pattern.references
       (Ap.Pattern.Stream (Ap.Streaming.make ~elem_size:8 ~elements:100 ~stride:4 ())));
  checkf "writeback doubles" 200.0
    (Ap.Pattern.references
       (Ap.Pattern.Stream
          (Ap.Streaming.make ~writeback:true ~elem_size:8 ~elements:100 ~stride:1 ())));
  checkf "random = construction + k*iter" (1000.0 +. (20.0 *. 50.0))
    (Ap.Pattern.references
       (Ap.Pattern.Random
          (Ap.Random_access.make ~elements:1000 ~elem_size:8 ~visits:20
             ~iterations:50 ~cache_ratio:1.0 ())));
  checkf "template = refs length" 7.0
    (Ap.Pattern.references
       (Ap.Pattern.Templated
          (Ap.Template.make ~elem_size:8 [| 0; 1; 2; 0; 1; 2; 0 |])))

let test_references_exceed_memory_accesses () =
  (* Every main-memory access is caused by a reference, never the other
     way round. *)
  List.iter
    (fun (w : Core.Workload.t) ->
      let instance = Core.Workloads.verification_instance w in
      let spec = instance.Core.Workload.spec in
      let refs = Ap.App_spec.cache_references ~cache spec in
      let mem = Ap.App_spec.main_memory_accesses ~cache spec in
      List.iter
        (fun (name, r) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: refs %.0f >= mem %.0f"
               w.Core.Workload.name name r (List.assoc name mem))
            true
            (r >= List.assoc name mem -. 1e-6))
        refs)
    [ Core.Workloads.vm; Core.Workloads.nb; Core.Workloads.mc ]

let test_reference_count_matches_trace () =
  (* For VM, the analytical reference count equals the traced event
     count exactly. *)
  let p = Kernels.Vm.verification in
  let registry = Memtrace.Region.create () in
  let tape = Memtrace.Tape.create () in
  let _ = Kernels.Vm.run registry tape p in
  let spec = Kernels.Vm.spec p in
  let modeled =
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0
      (Ap.App_spec.cache_references ~cache spec)
  in
  checkf "total references" (float_of_int (Memtrace.Tape.length tape))
    modeled

let test_cache_dvf_resident_capped () =
  let spec = Kernels.Vm.spec Kernels.Vm.profiling in
  let d = Core.Component.cache_dvf ~cache ~time:1e-3 spec in
  List.iter
    (fun (s : Core.Dvf.structure_dvf) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s resident %d <= capacity" s.Core.Dvf.name s.Core.Dvf.bytes)
        true
        (s.Core.Dvf.bytes <= Cachesim.Config.capacity cache))
    d.Core.Dvf.structures

let test_both_components () =
  let spec = Kernels.Vm.spec Kernels.Vm.verification in
  let both =
    Core.Component.both ~machine:Core.Perf.default_machine ~cache ~flops:0 spec
  in
  Alcotest.(check bool) "memory is the spec's unprotected DVF" true
    (both.Core.Component.memory
    = Core.Dvf.of_spec ~machine:Core.Perf.default_machine ~cache ~fit:5000.0
        ~flops:0 spec);
  Alcotest.(check int) "same structure count"
    (List.length both.Core.Component.memory.Core.Dvf.structures)
    (List.length both.Core.Component.cache.Core.Dvf.structures);
  (* A small working set (4 KB of 8 KB cache): the cache sees far more
     accesses than memory, but holds far fewer vulnerable bytes; both
     DVFs must be positive and finite. *)
  Alcotest.(check bool) "memory positive" true
    (both.Core.Component.memory.Core.Dvf.total > 0.0);
  Alcotest.(check bool) "cache positive" true
    (both.Core.Component.cache.Core.Dvf.total > 0.0);
  let table = Core.Component.to_table both in
  Alcotest.(check bool) "table renders" true
    (String.length (Dvf_util.Table.render table) > 100)

let test_cache_fit_scales () =
  let spec = Kernels.Vm.spec Kernels.Vm.verification in
  let d1 = Core.Component.cache_dvf ~fit:100.0 ~cache ~time:1e-3 spec in
  let d2 = Core.Component.cache_dvf ~fit:200.0 ~cache ~time:1e-3 spec in
  checkf "linear in cache FIT" (2.0 *. d1.Core.Dvf.total) d2.Core.Dvf.total

let suite =
  [
    Alcotest.test_case "pattern reference counts" `Quick test_pattern_references;
    Alcotest.test_case "references >= memory accesses" `Quick
      test_references_exceed_memory_accesses;
    Alcotest.test_case "reference count matches trace" `Quick
      test_reference_count_matches_trace;
    Alcotest.test_case "resident bytes capped" `Quick
      test_cache_dvf_resident_capped;
    Alcotest.test_case "both components" `Quick test_both_components;
    Alcotest.test_case "cache FIT scales" `Quick test_cache_fit_scales;
  ]
