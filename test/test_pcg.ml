module Pcg = Kernels.Pcg
module Cg = Kernels.Cg

let test_solves_system () =
  let p = Pcg.make_params ~max_iterations:500 ~tolerance:1e-10 64 in
  let r = Pcg.run_untraced p in
  Alcotest.(check bool)
    (Printf.sprintf "converged in %d iters, err %.2e" r.Pcg.iterations
       r.Pcg.solution_error)
    true
    (r.Pcg.residual < 1e-9 && r.Pcg.solution_error < 1e-6)

let test_traced_matches_untraced () =
  List.iter
    (fun preconditioner ->
      let p = Pcg.make_params ~max_iterations:10 ~preconditioner 80 in
      let registry = Memtrace.Region.create () in
      let traced = Pcg.run registry (Memtrace.Tape.create ()) p in
      let untraced = Pcg.run_untraced p in
      Alcotest.(check int) "iterations" untraced.Pcg.iterations traced.Pcg.iterations;
      Alcotest.(check (float 1e-12)) "residual" untraced.Pcg.residual
        traced.Pcg.residual)
    [ `Vector; `Dense_matrix ]

let test_converges_no_slower_than_cg_at_scale () =
  (* At n = 800 the diagonal spread is large and Jacobi pays off. *)
  let n = 800 in
  let pcg =
    Pcg.run_untraced (Pcg.make_params ~max_iterations:2000 ~tolerance:1e-8 n)
  in
  let cg =
    Cg.run_untraced (Cg.make_params ~max_iterations:2000 ~tolerance:1e-8 n)
  in
  Alcotest.(check bool)
    (Printf.sprintf "PCG %d < CG %d iterations" pcg.Pcg.iterations cg.Cg.iterations)
    true
    (2 * pcg.Pcg.iterations < cg.Cg.iterations)

let test_dense_preconditioner_traffic () =
  (* Dense M mode must register an n^2 structure; vector mode an n one. *)
  let n = 64 in
  let m_bytes preconditioner =
    let spec = Pcg.spec (Pcg.make_params ~preconditioner n) in
    List.assoc "M" (Access_patterns.App_spec.structure_bytes spec)
  in
  Alcotest.(check int) "vector M" (8 * n) (m_bytes `Vector);
  Alcotest.(check int) "dense M" (8 * n * n) (m_bytes `Dense_matrix)

let test_model_vs_simulation () =
  (* Fig. 4 methodology on PCG (vector mode, 6 structures). *)
  let p = Pcg.make_params ~max_iterations:8 ~tolerance:0.0 200 in
  List.iter
    (fun cfg ->
      let registry = Memtrace.Region.create () in
      let tape = Memtrace.Tape.create () in
      let result = Pcg.run registry tape p in
      let cache = Fixtures.simulate cfg tape in
      let stats = Cachesim.Cache.stats cache in
      let spec = Pcg.spec ~iterations:result.Pcg.iterations p in
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
                 (Cachesim.Stats.main_memory_accesses stats
                    region.Memtrace.Region.id);
          model := !model +. m)
        modeled;
      let err = Dvf_util.Maths.rel_error ~expected:!sim ~actual:!model in
      Alcotest.(check bool)
        (Printf.sprintf "%s: model %.0f vs sim %.0f (err %.1f%%)"
           cfg.Cachesim.Config.name !model !sim (100.0 *. err))
        true (err <= 0.15))
    Cachesim.Config.[ small_verification; large_verification ]

let suite =
  [
    Alcotest.test_case "solves the system" `Quick test_solves_system;
    Alcotest.test_case "traced = untraced (both modes)" `Quick
      test_traced_matches_untraced;
    Alcotest.test_case "beats CG at scale" `Slow
      test_converges_no_slower_than_cg_at_scale;
    Alcotest.test_case "preconditioner storage sizes" `Quick
      test_dense_preconditioner_traffic;
    Alcotest.test_case "model vs simulation" `Slow test_model_vs_simulation;
  ]
