module C = Kernels.Csr
module S = Kernels.Sparse_cg

(* --- CSR --- *)

let test_create_validation () =
  Alcotest.check_raises "row_ptr length"
    (Invalid_argument "Csr.create: row_ptr must have n+1 entries") (fun () ->
      ignore (C.create ~n:2 ~row_ptr:[| 0; 1 |] ~col_idx:[| 0 |] ~values:[| 1.0 |]));
  Alcotest.check_raises "column order"
    (Invalid_argument "Csr.create: column indices must be strictly increasing per row")
    (fun () ->
      ignore
        (C.create ~n:2
           ~row_ptr:[| 0; 2; 2 |]
           ~col_idx:[| 1; 0 |]
           ~values:[| 1.0; 2.0 |]));
  Alcotest.check_raises "column range"
    (Invalid_argument "Csr.create: column index out of range") (fun () ->
      ignore
        (C.create ~n:2 ~row_ptr:[| 0; 1; 1 |] ~col_idx:[| 5 |] ~values:[| 1.0 |]))

let test_of_dense_roundtrip () =
  let n = 7 in
  let rng = Dvf_util.Rng.create 3 in
  let a =
    Array.init (n * n) (fun _ ->
        if Dvf_util.Rng.int rng 3 = 0 then Dvf_util.Rng.float rng 2.0 -. 1.0
        else 0.0)
  in
  let m = C.of_dense n a in
  Alcotest.(check (array (float 0.0))) "roundtrip" a (C.to_dense m)

let test_laplacian_shape () =
  let m = C.laplacian_2d 4 in
  Alcotest.(check int) "n" 16 m.C.n;
  (* Interior point has 5 entries; corner has 3. *)
  let s, e = C.row_bounds m 5 in
  Alcotest.(check int) "interior row" 5 (e - s);
  let s0, e0 = C.row_bounds m 0 in
  Alcotest.(check int) "corner row" 3 (e0 - s0);
  (* Symmetric. *)
  let d = C.to_dense m in
  for i = 0 to 15 do
    for j = 0 to 15 do
      Alcotest.(check (float 0.0)) "symmetric" d.((i * 16) + j) d.((j * 16) + i)
    done
  done

let test_spmv_matches_dense () =
  let m = C.laplacian_2d 5 in
  let n = m.C.n in
  let rng = Dvf_util.Rng.create 9 in
  let x = Array.init n (fun _ -> Dvf_util.Rng.float rng 2.0 -. 1.0) in
  let y = Array.make n 0.0 in
  C.spmv m x y;
  let d = C.to_dense m in
  for i = 0 to n - 1 do
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      acc := !acc +. (d.((i * n) + j) *. x.(j))
    done;
    Alcotest.(check (float 1e-12)) (Printf.sprintf "row %d" i) !acc y.(i)
  done

let test_tridiagonal_matches_dense_generator () =
  let n = 10 in
  let m = C.spd_tridiagonal n in
  let dense = Array.make (n * n) 0.0 in
  Kernels.Spd.fill_matrix n (fun i j v -> dense.((i * n) + j) <- v);
  Alcotest.(check (array (float 0.0))) "same matrix" dense (C.to_dense m)

(* --- Sparse CG --- *)

let test_solves_laplacian () =
  let p = S.make_params ~max_iterations:500 ~tolerance:1e-10 (`Laplacian_2d 16) in
  let r = S.run_untraced p in
  Alcotest.(check bool)
    (Printf.sprintf "converged in %d iters, err %.2e" r.S.iterations
       r.S.solution_error)
    true
    (r.S.residual < 1e-9 && r.S.solution_error < 1e-6)

let test_sparse_matches_dense_cg () =
  (* Same tridiagonal system: the sparse and dense solvers share the loop,
     so iteration counts and residuals agree exactly. *)
  let n = 120 in
  let sparse =
    S.run_untraced (S.make_params ~max_iterations:300 ~tolerance:1e-10 (`Tridiagonal n))
  in
  let dense =
    Kernels.Cg.run_untraced (Kernels.Cg.make_params ~max_iterations:300 ~tolerance:1e-10 n)
  in
  Alcotest.(check int) "same iterations" dense.Kernels.Cg.iterations sparse.S.iterations;
  Alcotest.(check (float 1e-9)) "same residual" dense.Kernels.Cg.residual sparse.S.residual

let test_traced_matches_untraced () =
  let p = S.make_params ~max_iterations:12 (`Laplacian_2d 20) in
  let registry = Memtrace.Region.create () in
  let traced = S.run registry (Memtrace.Tape.create ()) p in
  let untraced = S.run_untraced p in
  Alcotest.(check int) "iterations" untraced.S.iterations traced.S.iterations;
  Alcotest.(check (float 1e-12)) "residual" untraced.S.residual traced.S.residual

let test_model_vs_simulation () =
  let p = S.make_params ~max_iterations:8 ~tolerance:0.0 (`Laplacian_2d 64) in
  List.iter
    (fun cfg ->
      let registry = Memtrace.Region.create () in
      let tape = Memtrace.Tape.create () in
      let result = S.run registry tape p in
      let cache = Fixtures.simulate cfg tape in
      let stats = Cachesim.Cache.stats cache in
      let spec = S.spec ~iterations:result.S.iterations p in
      let modeled = Access_patterns.App_spec.main_memory_accesses ~cache:cfg spec in
      let total_sim = ref 0.0 and total_model = ref 0.0 in
      List.iter
        (fun (name, model) ->
          let region = Memtrace.Region.lookup registry name in
          total_sim :=
            !total_sim
            +. float_of_int
                 (Cachesim.Stats.main_memory_accesses stats region.Memtrace.Region.id);
          total_model := !total_model +. model)
        modeled;
      let err = Dvf_util.Maths.rel_error ~expected:!total_sim ~actual:!total_model in
      Alcotest.(check bool)
        (Printf.sprintf "%s: model %.0f vs sim %.0f (err %.1f%%)"
           cfg.Cachesim.Config.name !total_model !total_sim (100.0 *. err))
        true (err <= 0.15))
    Cachesim.Config.[ small_verification; large_verification ]

let test_sparse_dvf_below_dense () =
  (* Same tridiagonal system, same iteration budget: the sparse layout
     moves ~n^2 fewer bytes, so its DVF must be far smaller. *)
  let n = 300 in
  let iterations = 10 in
  let cache = Cachesim.Config.profiling_4mb in
  let sparse_spec =
    S.spec ~iterations (S.make_params (`Tridiagonal n))
  in
  let dense_spec =
    Kernels.Cg.spec ~iterations (Kernels.Cg.make_params n)
  in
  let dvf spec =
    (Core.Dvf.rescale ~fit:5000.0 ~time:1e-3
       (Core.Dvf.of_spec ~machine:Core.Perf.default_machine ~cache ~fit:5000.0
          ~flops:0 spec))
      .Core.Dvf.total
  in
  Alcotest.(check bool) "sparse <= dense / 10" true
    (dvf sparse_spec < dvf dense_spec /. 10.0)

let suite =
  [
    Alcotest.test_case "CSR validation" `Quick test_create_validation;
    Alcotest.test_case "of_dense round trip" `Quick test_of_dense_roundtrip;
    Alcotest.test_case "laplacian shape" `Quick test_laplacian_shape;
    Alcotest.test_case "spmv matches dense" `Quick test_spmv_matches_dense;
    Alcotest.test_case "tridiagonal matches Spd" `Quick
      test_tridiagonal_matches_dense_generator;
    Alcotest.test_case "solves the Laplacian" `Quick test_solves_laplacian;
    Alcotest.test_case "sparse = dense CG on same system" `Quick
      test_sparse_matches_dense_cg;
    Alcotest.test_case "traced = untraced" `Quick test_traced_matches_untraced;
    Alcotest.test_case "model vs simulation" `Slow test_model_vs_simulation;
    Alcotest.test_case "sparse DVF far below dense" `Quick
      test_sparse_dvf_below_dense;
  ]
