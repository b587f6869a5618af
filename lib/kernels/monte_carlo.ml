module Tracked = Memtrace.Tracked
module Ap = Access_patterns

type params = {
  grid_points : int;
  nuclides : int;
  lookups : int;
  seed : int;
}

let make_params ?(grid_points = 4096) ?(nuclides = 16) ?(seed = 19) lookups =
  if grid_points < 2 then invalid_arg "Monte_carlo.make_params: grid_points < 2";
  if nuclides < 1 then invalid_arg "Monte_carlo.make_params: nuclides < 1";
  if lookups < 1 then invalid_arg "Monte_carlo.make_params: lookups < 1";
  { grid_points; nuclides; lookups; seed }

let verification = make_params 1_000
let profiling = make_params ~grid_points:16_384 ~nuclides:32 100_000

type result = {
  total_xs : float;
  flops : int;
}

(* Synthetic cross sections: smooth in energy, distinct per nuclide. *)
let xs_value ~nuclide ~point =
  1.0
  +. (0.1 *. float_of_int nuclide)
  +. sin (0.01 *. float_of_int point *. float_of_int (nuclide + 1))

let run_with p ~read_grid ~read_xs =
  let rng = Dvf_util.Rng.create p.seed in
  let g = p.grid_points in
  let total = ref 0.0 in
  let flops = ref 0 in
  for _ = 1 to p.lookups do
    let energy = Dvf_util.Rng.float rng 1.0 in
    let fidx = energy *. float_of_int (g - 1) in
    let idx = int_of_float fidx in
    let frac = fidx -. float_of_int idx in
    let e_lo = read_grid idx and e_hi = read_grid (idx + 1) in
    ignore e_lo;
    ignore e_hi;
    (* Gather and interpolate one cross section per nuclide. *)
    for nuc = 0 to p.nuclides - 1 do
      let lo = read_xs ~nuclide:nuc ~point:idx in
      let hi = read_xs ~nuclide:nuc ~point:(idx + 1) in
      total := !total +. (((1.0 -. frac) *. lo) +. (frac *. hi));
      flops := !flops + 4
    done
  done;
  { total_xs = !total; flops = !flops }

let run registry tape p =
  let g = p.grid_points in
  let grid =
    Tracked.init registry tape ~name:"G" ~elem_size:8 g (fun i ->
        float_of_int i /. float_of_int (g - 1))
  in
  let xs =
    Tracked.init registry tape ~name:"E" ~elem_size:8 (g * p.nuclides)
      (fun i -> xs_value ~nuclide:(i mod p.nuclides) ~point:(i / p.nuclides))
  in
  (* Construction pass, as the random-access model assumes. *)
  for i = 0 to Tracked.length grid - 1 do
    Tracked.touch grid i
  done;
  for i = 0 to Tracked.length xs - 1 do
    Tracked.touch xs i
  done;
  run_with p
    ~read_grid:(fun i -> Tracked.get grid i)
    ~read_xs:(fun ~nuclide ~point ->
      (* Row-major by grid point: a lookup's gathers land in one row. *)
      Tracked.get xs ((point * p.nuclides) + nuclide))

let run_untraced p =
  let g = p.grid_points in
  let grid = Array.init g (fun i -> float_of_int i /. float_of_int (g - 1)) in
  run_with p
    ~read_grid:(fun i -> grid.(i))
    ~read_xs:(fun ~nuclide ~point -> xs_value ~nuclide ~point)

let injection_lookups p = p.lookups

(* Fault-injection entry.  Unlike [run_with] — which knows the grid is
   uniform and derives the interpolation fraction analytically — this
   loop computes the fraction from the grid energies it reads, the way
   XSBench does; otherwise every strike on G would be trivially dead.
   The clean reference is therefore this same function with
   [flip = Fun.id], not [run_untraced]. *)
let run_injected p ~structure ~flip_at ~pick ~flip =
  let g = p.grid_points in
  let grid = Array.init g (fun i -> float_of_int i /. float_of_int (g - 1)) in
  let xs =
    Array.init (g * p.nuclides) (fun i ->
        xs_value ~nuclide:(i mod p.nuclides) ~point:(i / p.nuclides))
  in
  let inject () =
    let target = match structure with `G -> grid | `E -> xs in
    let e = pick (Array.length target) in
    target.(e) <- flip target.(e)
  in
  let rng = Dvf_util.Rng.create p.seed in
  let total = ref 0.0 in
  let flops = ref 0 in
  for step = 0 to p.lookups - 1 do
    if step = flip_at then inject ();
    let energy = Dvf_util.Rng.float rng 1.0 in
    let fidx = energy *. float_of_int (g - 1) in
    let idx = int_of_float fidx in
    let e_lo = grid.(idx) and e_hi = grid.(idx + 1) in
    let frac = (energy -. e_lo) /. (e_hi -. e_lo) in
    for nuc = 0 to p.nuclides - 1 do
      let lo = xs.((idx * p.nuclides) + nuc) in
      let hi = xs.(((idx + 1) * p.nuclides) + nuc) in
      total := !total +. (((1.0 -. frac) *. lo) +. (frac *. hi));
      flops := !flops + 4
    done
  done;
  { total_xs = !total; flops = !flops }

let spec p =
  let g_bytes = 8 * p.grid_points in
  let e_bytes = 8 * p.grid_points * p.nuclides in
  let total = float_of_int (g_bytes + e_bytes) in
  let r_g = float_of_int g_bytes /. total in
  let r_e = float_of_int e_bytes /. total in
  let random name elements visits run_length ratio =
    {
      Ap.App_spec.name;
      bytes = 8 * elements;
      pattern =
        Some
          (Ap.Pattern.Random
             (Ap.Random_access.make ~run_length ~elements ~elem_size:8
                ~visits:(min visits elements) ~iterations:p.lookups
                ~cache_ratio:ratio ()));
    }
  in
  Ap.App_spec.make ~app_name:"MC"
    ~structures:
      [
        (* A lookup reads two adjacent grid energies (one run of 2) and
           gathers one row of nuclide data per bracketing grid point
           (runs of [nuclides] contiguous values). *)
        random "G" p.grid_points 2 2 r_g;
        random "E" (p.grid_points * p.nuclides) (2 * p.nuclides) p.nuclides r_e;
      ]
    ()
