module Cg = Kernels.Cg

let test_solves_system () =
  (* Fully converge on a small well-conditioned system. *)
  let p = Cg.make_params ~max_iterations:500 ~tolerance:1e-10 64 in
  let r = Cg.run_untraced p in
  Alcotest.(check bool)
    (Printf.sprintf "converged in %d iters, err %.2e" r.Cg.iterations
       r.Cg.solution_error)
    true
    (r.Cg.residual < 1e-9 && r.Cg.solution_error < 1e-6)

let test_traced_matches_untraced () =
  let p = Cg.make_params ~max_iterations:10 100 in
  let registry = Memtrace.Region.create () in
  let traced = Cg.run registry (Memtrace.Tape.create ()) p in
  let untraced = Cg.run_untraced p in
  Alcotest.(check int) "same iterations" untraced.Cg.iterations traced.Cg.iterations;
  Alcotest.(check (float 1e-12)) "same residual" untraced.Cg.residual traced.Cg.residual

let test_iterations_grow_with_n () =
  (* The conditioning of the generated system worsens with n, which is
     what drives Fig. 6. *)
  let iters n =
    (Cg.run_untraced (Cg.make_params ~max_iterations:2000 ~tolerance:1e-8 n)).Cg.iterations
  in
  let i100 = iters 100 and i400 = iters 400 in
  Alcotest.(check bool)
    (Printf.sprintf "iters(400)=%d > iters(100)=%d" i400 i100)
    true (i400 > i100)

let model_vs_sim cfg =
  let p = Cg.make_params ~max_iterations:8 ~tolerance:0.0 200 in
  let registry = Memtrace.Region.create () in
  let tape = Memtrace.Tape.create () in
  let res = Cg.run registry tape p in
  let cache = Fixtures.simulate cfg tape in
  let stats = Cachesim.Cache.stats cache in
  let spec = Cg.spec ~iterations:res.Cg.iterations p in
  let modeled = Access_patterns.App_spec.main_memory_accesses ~cache:cfg spec in
  List.map
    (fun name ->
      let region = Memtrace.Region.lookup registry name in
      let sim =
        float_of_int
          (Cachesim.Stats.main_memory_accesses stats region.Memtrace.Region.id)
      in
      (name, sim, List.assoc name modeled))
    [ "A"; "x"; "p"; "r" ]

let test_model_within_tolerance () =
  (* Fig. 4(b): total estimate within 15%; the matrix A dominates. *)
  List.iter
    (fun cfg ->
      let rows = model_vs_sim cfg in
      let total_sim = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 rows in
      let total_model = List.fold_left (fun acc (_, _, m) -> acc +. m) 0.0 rows in
      let err = Dvf_util.Maths.rel_error ~expected:total_sim ~actual:total_model in
      Alcotest.(check bool)
        (Printf.sprintf "%s: total model %.0f vs sim %.0f (err %.1f%%)"
           cfg.Cachesim.Config.name total_model total_sim (100.0 *. err))
        true (err <= 0.15);
      let a_sim = List.assoc "A" (List.map (fun (n, s, _) -> (n, s)) rows) in
      let a_model = List.assoc "A" (List.map (fun (n, _, m) -> (n, m)) rows) in
      let a_err = Dvf_util.Maths.rel_error ~expected:a_sim ~actual:a_model in
      Alcotest.(check bool)
        (Printf.sprintf "%s: A model %.0f vs sim %.0f (err %.1f%%)"
           cfg.Cachesim.Config.name a_model a_sim (100.0 *. a_err))
        true (a_err <= 0.15))
    Cachesim.Config.[ small_verification; large_verification ]

let suite =
  [
    Alcotest.test_case "solves the system" `Quick test_solves_system;
    Alcotest.test_case "traced matches untraced" `Quick
      test_traced_matches_untraced;
    Alcotest.test_case "iterations grow with n" `Slow
      test_iterations_grow_with_n;
    Alcotest.test_case "model within 15% of simulation" `Slow
      test_model_within_tolerance;
  ]
