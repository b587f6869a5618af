module Tracked = Memtrace.Tracked
module Ap = Access_patterns

type preconditioner = [ `Dense_matrix | `Vector ]

type params = {
  n : int;
  max_iterations : int;
  tolerance : float;
  seed : int;
  preconditioner : preconditioner;
}

let make_params ?(max_iterations = 15) ?(tolerance = 1e-10) ?(seed = 1)
    ?(preconditioner = `Vector) n =
  if n <= 1 then invalid_arg "Pcg.make_params: n <= 1";
  if max_iterations < 1 then invalid_arg "Pcg.make_params: max_iterations < 1";
  { n; max_iterations; tolerance; seed; preconditioner }

let profiling = make_params 800

type result = {
  iterations : int;
  residual : float;
  solution_error : float;
  flops : int;
}

let flop_count ~iterations p =
  let matvec = 2 * p.n * p.n in
  let precond =
    match p.preconditioner with
    | `Dense_matrix -> matvec
    | `Vector -> p.n
  in
  iterations * ((2 * matvec) + precond + (12 * p.n))

module type Ops = sig
  val n : int
  val a_row_dot_p : int -> float
  val apply_precond : unit -> unit (* z <- M^-1 r *)
  val get_x : int -> float
  val set_x : int -> float -> unit
  val get_p : int -> float
  val set_p : int -> float -> unit
  val get_r : int -> float
  val set_r : int -> float -> unit
  val get_z : int -> float
end

let pcg_loop (module O : Ops) ~max_iterations ~tolerance =
  let n = O.n in
  let iterations = ref 0 in
  (* z0 = M^-1 r0; p0 = z0. *)
  O.apply_precond ();
  for i = 0 to n - 1 do
    O.set_p i (O.get_z i)
  done;
  let rz = ref 0.0 in
  let rnorm = ref 0.0 in
  for i = 0 to n - 1 do
    rz := !rz +. (O.get_r i *. O.get_z i);
    let ri = O.get_r i in
    rnorm := !rnorm +. (ri *. ri)
  done;
  let continue_ = ref (sqrt !rnorm >= tolerance) in
  while !continue_ && !iterations < max_iterations do
    incr iterations;
    (* alpha = (r.z) / (p.(A p)) with the matvec streamed twice, mirroring
       the paper's CG structure. *)
    let den = ref 0.0 in
    for i = 0 to n - 1 do
      den := !den +. (O.get_p i *. O.a_row_dot_p i)
    done;
    let alpha = !rz /. !den in
    for i = 0 to n - 1 do
      O.set_x i (O.get_x i +. (alpha *. O.get_p i))
    done;
    for i = 0 to n - 1 do
      O.set_r i (O.get_r i -. (alpha *. O.a_row_dot_p i))
    done;
    let rn = ref 0.0 in
    for i = 0 to n - 1 do
      let ri = O.get_r i in
      rn := !rn +. (ri *. ri)
    done;
    if sqrt !rn < tolerance then continue_ := false
    else begin
      (* z <- M^-1 r; beta = (z.r)_new / (z.r)_old; p <- z + beta p. *)
      O.apply_precond ();
      let rz' = ref 0.0 in
      for i = 0 to n - 1 do
        rz' := !rz' +. (O.get_r i *. O.get_z i)
      done;
      let beta = !rz' /. !rz in
      rz := !rz';
      for i = 0 to n - 1 do
        O.set_p i (O.get_z i +. (beta *. O.get_p i))
      done
    end;
    rnorm := !rn
  done;
  (!iterations, sqrt !rnorm)

let finish p ~iterations ~residual ~x_get xstar =
  let err = ref 0.0 in
  for i = 0 to p.n - 1 do
    err := Float.max !err (abs_float (x_get i -. xstar.(i)))
  done;
  { iterations; residual; solution_error = !err; flops = flop_count ~iterations p }

let precond_elements p =
  match p.preconditioner with `Dense_matrix -> p.n * p.n | `Vector -> p.n

let run registry tape p =
  let n = p.n in
  let rng = Dvf_util.Rng.create p.seed in
  let xstar = Spd.known_solution rng n in
  let b = Spd.rhs_of_solution n xstar in
  let a = Tracked.make registry tape ~name:"A" ~elem_size:8 (n * n) 0.0 in
  Spd.fill_matrix n (fun i j v -> Tracked.set_silent a ((i * n) + j) v);
  let m =
    Tracked.make registry tape ~name:"M" ~elem_size:8 (precond_elements p) 0.0
  in
  (match p.preconditioner with
  | `Dense_matrix ->
      for i = 0 to n - 1 do
        Tracked.set_silent m ((i * n) + i) (1.0 /. Spd.diagonal ~n i)
      done
  | `Vector ->
      for i = 0 to n - 1 do
        Tracked.set_silent m i (1.0 /. Spd.diagonal ~n i)
      done);
  let x = Tracked.make registry tape ~name:"x" ~elem_size:8 n 0.0 in
  let pvec = Tracked.make registry tape ~name:"p" ~elem_size:8 n 0.0 in
  let r = Tracked.init registry tape ~name:"r" ~elem_size:8 n (fun i -> b.(i)) in
  let z = Tracked.make registry tape ~name:"z" ~elem_size:8 n 0.0 in
  let module O = struct
    let n = n

    let a_row_dot_p i =
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (Tracked.get a ((i * n) + j) *. Tracked.get pvec j)
      done;
      !acc

    let apply_precond () =
      match p.preconditioner with
      | `Dense_matrix ->
          for i = 0 to n - 1 do
            let acc = ref 0.0 in
            for j = 0 to n - 1 do
              acc := !acc +. (Tracked.get m ((i * n) + j) *. Tracked.get r j)
            done;
            Tracked.set z i !acc
          done
      | `Vector ->
          for i = 0 to n - 1 do
            Tracked.set z i (Tracked.get m i *. Tracked.get r i)
          done

    let get_x = Tracked.get x
    let set_x = Tracked.set x
    let get_p = Tracked.get pvec
    let set_p = Tracked.set pvec
    let get_r = Tracked.get r
    let set_r = Tracked.set r
    let get_z = Tracked.get z
  end in
  let iterations, residual =
    pcg_loop (module O) ~max_iterations:p.max_iterations ~tolerance:p.tolerance
  in
  finish p ~iterations ~residual
    ~x_get:(fun i -> Tracked.get_silent x i)
    xstar

let run_untraced p =
  let n = p.n in
  let rng = Dvf_util.Rng.create p.seed in
  let xstar = Spd.known_solution rng n in
  let b = Spd.rhs_of_solution n xstar in
  let a = Array.make (n * n) 0.0 in
  Spd.fill_matrix n (fun i j v -> a.((i * n) + j) <- v);
  let minv_diag = Array.init n (fun i -> 1.0 /. Spd.diagonal ~n i) in
  let x = Array.make n 0.0 in
  let pvec = Array.make n 0.0 in
  let r = Array.copy b in
  let z = Array.make n 0.0 in
  let module O = struct
    let n = n

    let a_row_dot_p i =
      let acc = ref 0.0 in
      let base = i * n in
      for j = 0 to n - 1 do
        acc := !acc +. (a.(base + j) *. pvec.(j))
      done;
      !acc

    let apply_precond () =
      (* Numerically the dense and vector modes are identical (the dense
         M holds the inverse diagonal); only the traced traffic differs. *)
      for i = 0 to n - 1 do
        z.(i) <- minv_diag.(i) *. r.(i)
      done

    let get_x i = x.(i)
    let set_x i v = x.(i) <- v
    let get_p i = pvec.(i)
    let set_p i v = pvec.(i) <- v
    let get_r i = r.(i)
    let set_r i v = r.(i) <- v
    let get_z i = z.(i)
  end in
  let iterations, residual =
    pcg_loop (module O) ~max_iterations:p.max_iterations ~tolerance:p.tolerance
  in
  finish p ~iterations ~residual ~x_get:(fun i -> x.(i)) xstar

let spec ?iterations p =
  let iterations =
    match iterations with Some i -> max 1 i | None -> p.max_iterations
  in
  let n = p.n in
  let vec_bytes = 8 * n in
  let m_elements = precond_elements p in
  let structures =
    [
      { Ap.App_spec.name = "A"; bytes = 8 * n * n; pattern = None };
      { Ap.App_spec.name = "M"; bytes = 8 * m_elements; pattern = None };
      { Ap.App_spec.name = "x"; bytes = vec_bytes; pattern = None };
      { Ap.App_spec.name = "p"; bytes = vec_bytes; pattern = None };
      { Ap.App_spec.name = "r"; bytes = vec_bytes; pattern = None };
      { Ap.App_spec.name = "z"; bytes = vec_bytes; pattern = None };
    ]
  in
  let stream ?writeback ?(elements = n) name =
    Ap.Compose.occ name
      (Ap.Compose.Stream
         (Ap.Streaming.make ?writeback ~elem_size:8 ~elements ~stride:1 ()))
  in
  let a_phase =
    [ stream ~elements:(n * n) "A";
      Ap.Compose.occ ~times:n "p" Ap.Compose.Reuse_only ]
  in
  let m_phase =
    match p.preconditioner with
    | `Dense_matrix ->
        [ stream ~elements:(n * n) "M";
          Ap.Compose.occ ~times:n "r" Ap.Compose.Reuse_only;
          stream ~writeback:true "z" ]
    | `Vector -> [ stream "M"; stream "r"; stream ~writeback:true "z" ]
  in
  let order =
    [
      [ stream "r"; stream "z" ];            (* rho = r.z *)
      a_phase;                               (* p.(A p) *)
      [ stream ~writeback:true "x"; stream "p" ];
      a_phase;                               (* r update *)
      [ stream ~writeback:true "r" ];
      m_phase;                               (* z = M^-1 r *)
      [ stream "z"; stream "r" ];            (* beta *)
      [ stream ~writeback:true "p"; stream "z" ];
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
  Ap.App_spec.make ~app_name:"PCG" ~structures ~composition ()
