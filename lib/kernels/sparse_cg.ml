module Tracked = Memtrace.Tracked
module Ap = Access_patterns

type problem = [ `Laplacian_2d of int | `Tridiagonal of int ]

type params = {
  problem : problem;
  max_iterations : int;
  tolerance : float;
  seed : int;
}

let make_params ?(max_iterations = 25) ?(tolerance = 1e-10) ?(seed = 1) problem =
  (match problem with
  | `Laplacian_2d k when k < 2 -> invalid_arg "Sparse_cg.make_params: k < 2"
  | `Tridiagonal n when n < 2 -> invalid_arg "Sparse_cg.make_params: n < 2"
  | _ -> ());
  if max_iterations < 1 then invalid_arg "Sparse_cg.make_params: max_iterations < 1";
  { problem; max_iterations; tolerance; seed }

let verification = make_params (`Laplacian_2d 64)

type result = {
  n : int;
  nnz : int;
  iterations : int;
  residual : float;
  solution_error : float;
  flops : int;
}

let matrix p =
  match p.problem with
  | `Laplacian_2d k -> Csr.laplacian_2d k
  | `Tridiagonal n -> Csr.spd_tridiagonal n

let flop_count ~iterations ~n ~nnz =
  iterations * ((2 * 2 * nnz) + (10 * n))

let finish ~matrix:m ~iterations ~residual ~x_get xstar =
  let err = ref 0.0 in
  for i = 0 to m.Csr.n - 1 do
    err := Float.max !err (abs_float (x_get i -. xstar.(i)))
  done;
  {
    n = m.Csr.n;
    nnz = Csr.nnz m;
    iterations;
    residual;
    solution_error = !err;
    flops = flop_count ~iterations ~n:m.Csr.n ~nnz:(Csr.nnz m);
  }

let problem_data p =
  let m = matrix p in
  let rng = Dvf_util.Rng.create p.seed in
  let xstar = Spd.known_solution rng m.Csr.n in
  let b = Array.make m.Csr.n 0.0 in
  Csr.spmv m xstar b;
  (m, xstar, b)

let run registry tape p =
  let m, xstar, b = problem_data p in
  let n = m.Csr.n in
  let a_vals =
    Tracked.create registry tape ~name:"a" ~elem_size:8
      (Array.copy m.Csr.values)
  in
  let colidx =
    Tracked.create registry tape ~name:"colidx" ~elem_size:4
      (Array.copy m.Csr.col_idx)
  in
  let rowstr =
    Tracked.create registry tape ~name:"rowstr" ~elem_size:4
      (Array.copy m.Csr.row_ptr)
  in
  let x = Tracked.make registry tape ~name:"x" ~elem_size:8 n 0.0 in
  let pvec = Tracked.init registry tape ~name:"p" ~elem_size:8 n (fun i -> b.(i)) in
  let r = Tracked.init registry tape ~name:"r" ~elem_size:8 n (fun i -> b.(i)) in
  let module O = struct
    let n = n

    let a_row_dot_p i =
      let start = Tracked.get rowstr i in
      let stop = Tracked.get rowstr (i + 1) in
      let acc = ref 0.0 in
      for k = start to stop - 1 do
        let col = Tracked.get colidx k in
        acc := !acc +. (Tracked.get a_vals k *. Tracked.get pvec col)
      done;
      !acc

    let get_x = Tracked.get x
    let set_x = Tracked.set x
    let get_p = Tracked.get pvec
    let set_p = Tracked.set pvec
    let get_r = Tracked.get r
    let set_r = Tracked.set r
  end in
  let iterations, residual =
    Cg.iterate (module O) ~max_iterations:p.max_iterations
      ~tolerance:p.tolerance
  in
  finish ~matrix:m ~iterations ~residual
    ~x_get:(fun i -> Tracked.get_silent x i)
    xstar

let run_untraced p =
  let m, xstar, b = problem_data p in
  let n = m.Csr.n in
  let x = Array.make n 0.0 in
  let pvec = Array.copy b in
  let r = Array.copy b in
  let module O = struct
    let n = n

    let a_row_dot_p i =
      let acc = ref 0.0 in
      for k = m.Csr.row_ptr.(i) to m.Csr.row_ptr.(i + 1) - 1 do
        acc := !acc +. (m.Csr.values.(k) *. pvec.(m.Csr.col_idx.(k)))
      done;
      !acc

    let get_x i = x.(i)
    let set_x i v = x.(i) <- v
    let get_p i = pvec.(i)
    let set_p i v = pvec.(i) <- v
    let get_r i = r.(i)
    let set_r i v = r.(i) <- v
  end in
  let iterations, residual =
    Cg.iterate (module O) ~max_iterations:p.max_iterations
      ~tolerance:p.tolerance
  in
  finish ~matrix:m ~iterations ~residual ~x_get:(fun i -> x.(i)) xstar

let spec ?iterations p =
  let m = matrix p in
  let n = m.Csr.n and nnz = Csr.nnz m in
  let iterations =
    match iterations with Some i -> max 1 i | None -> p.max_iterations
  in
  let vec_bytes = 8 * n in
  let structures =
    [
      { Ap.App_spec.name = "a"; bytes = 8 * nnz; pattern = None };
      { Ap.App_spec.name = "colidx"; bytes = 4 * nnz; pattern = None };
      { Ap.App_spec.name = "rowstr"; bytes = 4 * (n + 1); pattern = None };
      { Ap.App_spec.name = "x"; bytes = vec_bytes; pattern = None };
      { Ap.App_spec.name = "p"; bytes = vec_bytes; pattern = None };
      { Ap.App_spec.name = "r"; bytes = vec_bytes; pattern = None };
    ]
  in
  let stream ?writeback ~elem_size ~elements name =
    Ap.Compose.occ name
      (Ap.Compose.Stream
         (Ap.Streaming.make ?writeback ~elem_size ~elements ~stride:1 ()))
  in
  let vec ?writeback name = stream ?writeback ~elem_size:8 ~elements:n name in
  let matvec_phase =
    [
      stream ~elem_size:8 ~elements:nnz "a";
      stream ~elem_size:4 ~elements:nnz "colidx";
      (* rowstr is read twice per row, but the second read is the next
         row's first: one sequential traverse of n+1 pointers. *)
      stream ~elem_size:4 ~elements:(n + 1) "rowstr";
      (* p's gather order IS the sparsity pattern: the matvec reads
         p.(col_idx.(k)) for k = 0..nnz-1 — a template-based access (the
         paper classifies CG as Template+Reuse+Streaming), known to the
         modeler from the matrix structure. *)
      Ap.Compose.occ "p"
        (Ap.Compose.Tmpl (Ap.Template.make ~elem_size:8 (Array.copy m.Csr.col_idx)));
    ]
  in
  let order =
    [
      [ vec "r" ];
      matvec_phase;
      [ vec "p" ];
      [ vec ~writeback:true "x"; vec "p" ];
      matvec_phase;
      [ vec ~writeback:true "r" ];
      [ vec "r"; vec ~writeback:true "p" ];
    ]
  in
  let composition =
    Ap.Compose.make
      ~structures:
        (List.map
           (fun (s : Ap.App_spec.structure) ->
             { Ap.Compose.name = s.Ap.App_spec.name; bytes = s.Ap.App_spec.bytes })
           structures)
      ~order ~iterations
  in
  Ap.App_spec.make ~app_name:"CG-sparse" ~structures ~composition ()
