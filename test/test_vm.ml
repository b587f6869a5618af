(* End-to-end check of the VM kernel: the analytical streaming model versus
   the cache simulator driven by the kernel's real trace (the Fig. 4
   methodology, on the smallest kernel). *)

let simulate_vm cache_config p =
  let registry = Memtrace.Region.create () in
  let tape = Memtrace.Tape.create () in
  let result = Kernels.Vm.run registry tape p in
  let cache = Fixtures.simulate cache_config tape in
  (registry, Cachesim.Cache.stats cache, result)

let model_vs_sim_structure cache_config p name =
  let registry, stats, _ = simulate_vm cache_config p in
  let region = Memtrace.Region.lookup registry name in
  let measured =
    Cachesim.Stats.main_memory_accesses stats region.Memtrace.Region.id
  in
  let spec = Kernels.Vm.spec p in
  let modeled =
    List.assoc name
      (Access_patterns.App_spec.main_memory_accesses ~cache:cache_config spec)
  in
  (float_of_int measured, modeled)

let check_within pct name (measured, modeled) =
  let err = Dvf_util.Maths.rel_error ~expected:measured ~actual:modeled in
  Alcotest.(check bool)
    (Printf.sprintf "%s: model %.1f vs sim %.1f (err %.1f%%)" name modeled
       measured (100.0 *. err))
    true (err <= pct)

let test_verification_accuracy () =
  let p = Kernels.Vm.verification in
  List.iter
    (fun cfg ->
      List.iter
        (fun name ->
          check_within 0.15 name (model_vs_sim_structure cfg p name))
        [ "A"; "B"; "C" ])
    Cachesim.Config.[ small_verification; large_verification ]

let test_checksum_correct () =
  (* The kernel must compute the right product regardless of tracing. *)
  let p = Kernels.Vm.make_params ~stride_a:2 ~stride_b:1 100 in
  let registry = Memtrace.Region.create () in
  let r = Kernels.Vm.run registry (Memtrace.Tape.create ()) p in
  let expected = ref 0.0 in
  for i = 0 to 99 do
    let a = float_of_int ((i * 2 mod 97) + 1) in
    let b = float_of_int ((i mod 89) + 1) /. 8.0 in
    expected := !expected +. (a *. b)
  done;
  Alcotest.(check (float 1e-9)) "checksum" !expected r.Kernels.Vm.checksum

let test_stride_increases_accesses () =
  (* Fig. 5(a)'s driver: larger stride on A means more main-memory
     accesses than B and C at equal trip count. *)
  let p = Kernels.Vm.profiling in
  let cache = Cachesim.Config.profiling_4mb in
  let nha = Access_patterns.App_spec.main_memory_accesses ~cache (Kernels.Vm.spec p) in
  let a = List.assoc "A" nha and b = List.assoc "B" nha in
  Alcotest.(check bool) "A > B" true (a > b)

let test_trace_event_count () =
  (* 4 traced references per loop iteration (read A, B, C; write C). *)
  let p = Kernels.Vm.make_params 50 in
  let registry = Memtrace.Region.create () in
  let tape = Memtrace.Tape.create () in
  let _ = Kernels.Vm.run registry tape p in
  Alcotest.(check int) "events" (4 * 50) (Memtrace.Tape.length tape)

let suite =
  [
    Alcotest.test_case "verification accuracy <= 15%" `Quick
      test_verification_accuracy;
    Alcotest.test_case "checksum correct" `Quick test_checksum_correct;
    Alcotest.test_case "stride increases accesses" `Quick
      test_stride_increases_accesses;
    Alcotest.test_case "trace event count" `Quick test_trace_event_count;
  ]
