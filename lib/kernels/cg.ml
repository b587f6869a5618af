module Tracked = Memtrace.Tracked
module Ap = Access_patterns

type params = {
  n : int;
  max_iterations : int;
  tolerance : float;
  seed : int;
}

let make_params ?(max_iterations = 15) ?(tolerance = 1e-10) ?(seed = 1) n =
  if n <= 1 then invalid_arg "Cg.make_params: n <= 1";
  if max_iterations < 1 then invalid_arg "Cg.make_params: max_iterations < 1";
  { n; max_iterations; tolerance; seed }

let verification = make_params 500
let profiling = make_params 800

type result = {
  iterations : int;
  residual : float;
  solution_error : float;
  flops : int;
}

let fill_matrix = Spd.fill_matrix
let known_solution = Spd.known_solution
let rhs_of_solution = Spd.rhs_of_solution

let flop_count ~iterations p =
  iterations * ((2 * 2 * p.n * p.n) + (10 * p.n))

(* The CG loop against abstract vector/matrix operations, so the traced
   and untraced variants share one control flow (and thus one iteration
   count). *)
module type Vector_ops = sig
  val n : int
  val a_row_dot_p : int -> float
  val get_x : int -> float
  val set_x : int -> float -> unit
  val get_p : int -> float
  val set_p : int -> float -> unit
  val get_r : int -> float
  val set_r : int -> float -> unit
end

let iterate ?(on_iteration = fun _ -> ()) (module O : Vector_ops)
    ~max_iterations ~tolerance =
  let n = O.n in
  let iterations = ref 0 in
  let rr = ref 0.0 in
  (* Phase r: rho = r.r *)
  for i = 0 to n - 1 do
    let ri = O.get_r i in
    rr := !rr +. (ri *. ri)
  done;
  let continue_ = ref (sqrt !rr >= tolerance) in
  while !continue_ && !iterations < max_iterations do
    incr iterations;
    on_iteration !iterations;
    (* Phase (A p): denominator p . (A p), streaming A with p reused per
       row. *)
    let den = ref 0.0 in
    for i = 0 to n - 1 do
      den := !den +. (O.get_p i *. O.a_row_dot_p i)
    done;
    let alpha = !rr /. !den in
    (* Phases p (x p): x <- x + alpha p *)
    for i = 0 to n - 1 do
      O.set_x i (O.get_x i +. (alpha *. O.get_p i))
    done;
    (* Phase (A p) again: r <- r - alpha (A p) *)
    for i = 0 to n - 1 do
      O.set_r i (O.get_r i -. (alpha *. O.a_row_dot_p i))
    done;
    (* Phase r: rho' = r.r *)
    let rr' = ref 0.0 in
    for i = 0 to n - 1 do
      let ri = O.get_r i in
      rr' := !rr' +. (ri *. ri)
    done;
    let beta = !rr' /. !rr in
    rr := !rr';
    (* Phase (r p): p <- r + beta p *)
    for i = 0 to n - 1 do
      O.set_p i (O.get_r i +. (beta *. O.get_p i))
    done;
    if sqrt !rr < tolerance then continue_ := false
  done;
  (!iterations, sqrt !rr)

let build_result p ~iterations ~residual ~x_get xstar =
  let err = ref 0.0 in
  for i = 0 to p.n - 1 do
    err := Float.max !err (abs_float (x_get i -. xstar.(i)))
  done;
  {
    iterations;
    residual;
    solution_error = !err;
    flops = flop_count ~iterations p;
  }

let run registry tape p =
  let n = p.n in
  let rng = Dvf_util.Rng.create p.seed in
  let xstar = known_solution rng n in
  let b = rhs_of_solution n xstar in
  let a = Tracked.make registry tape ~name:"A" ~elem_size:8 (n * n) 0.0 in
  fill_matrix n (fun i j v -> Tracked.set_silent a ((i * n) + j) v);
  let x = Tracked.make registry tape ~name:"x" ~elem_size:8 n 0.0 in
  let pvec = Tracked.init registry tape ~name:"p" ~elem_size:8 n (fun i -> b.(i)) in
  let r = Tracked.init registry tape ~name:"r" ~elem_size:8 n (fun i -> b.(i)) in
  let a_store = Tracked.unsafe_storage a
  and p_store = Tracked.unsafe_storage pvec in
  let module O = struct
    let n = n

    (* The matvec is almost every event: each element is touched, then
       read unboxed from its storage.  p[j] is recorded before
       A[i*n+j], the order the traced reads have always had. *)
    let a_row_dot_p i =
      let acc = ref 0.0 in
      let base = i * n in
      for j = 0 to n - 1 do
        Tracked.touch pvec j;
        Tracked.touch a (base + j);
        acc := !acc +. (a_store.(base + j) *. p_store.(j))
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
    iterate (module O) ~max_iterations:p.max_iterations ~tolerance:p.tolerance
  in
  build_result p ~iterations ~residual
    ~x_get:(fun i -> Tracked.get_silent x i)
    xstar

let run_untraced p =
  let n = p.n in
  let rng = Dvf_util.Rng.create p.seed in
  let xstar = known_solution rng n in
  let b = rhs_of_solution n xstar in
  let a = Array.make (n * n) 0.0 in
  fill_matrix n (fun i j v -> a.((i * n) + j) <- v);
  let x = Array.make n 0.0 in
  let pvec = Array.copy b in
  let r = Array.copy b in
  let module O = struct
    let n = n

    let a_row_dot_p i =
      let acc = ref 0.0 in
      let base = i * n in
      for j = 0 to n - 1 do
        acc := !acc +. (a.(base + j) *. pvec.(j))
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
    iterate (module O) ~max_iterations:p.max_iterations ~tolerance:p.tolerance
  in
  build_result p ~iterations ~residual ~x_get:(fun i -> x.(i)) xstar

let spec ?iterations p =
  let iterations =
    match iterations with Some i -> max 1 i | None -> p.max_iterations
  in
  let n = p.n in
  let vec_bytes = 8 * n in
  let structures =
    [
      { Ap.App_spec.name = "A"; bytes = 8 * n * n; pattern = None };
      { Ap.App_spec.name = "x"; bytes = vec_bytes; pattern = None };
      { Ap.App_spec.name = "p"; bytes = vec_bytes; pattern = None };
      { Ap.App_spec.name = "r"; bytes = vec_bytes; pattern = None };
    ]
  in
  let stream ?writeback ?(elements = n) ?(stride = 1) name =
    Ap.Compose.occ name
      (Ap.Compose.Stream
         (Ap.Streaming.make ?writeback ~elem_size:8 ~elements ~stride ()))
  in
  let matrix_stream =
    Ap.Compose.occ "A"
      (Ap.Compose.Stream
         (Ap.Streaming.make ~elem_size:8 ~elements:(n * n) ~stride:1 ()))
  in
  let p_in_matvec = Ap.Compose.occ ~times:n "p" Ap.Compose.Reuse_only in
  (* Paper §III-D: order r (A p) p (x p) (A p) r (r p), patterns
     s (t t) s (s s) (t t) s (s s). *)
  let order =
    [
      [ stream "r" ];
      [ matrix_stream; p_in_matvec ];
      [ stream "p" ];
      [ stream ~writeback:true "x"; stream "p" ];
      [ matrix_stream; p_in_matvec ];
      [ stream ~writeback:true "r" ];
      [ stream "r"; stream ~writeback:true "p" ];
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
  Ap.App_spec.make ~app_name:"CG" ~structures ~composition ()
