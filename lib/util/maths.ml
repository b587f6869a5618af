let pi = 4.0 *. atan 1.0

(* Lanczos approximation, g = 7, 9 coefficients.  Standard table; gives
   ~1e-13 relative accuracy for x > 0.5, extended below via the reflection
   formula. *)
let lanczos_g = 7.0

let lanczos_coeff =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec lgamma x =
  if x < 0.5 then
    (* Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x) *)
    log (pi /. abs_float (sin (pi *. x))) -. lgamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coeff.(0) in
    for i = 1 to Array.length lanczos_coeff - 1 do
      acc := !acc +. (lanczos_coeff.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2.0 *. pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

let log_factorial_cache_size = 1025

(* Built eagerly at module initialisation: a [lazy] table raced when
   several domains made their first call at once (the loser of the race
   saw [CamlinternalLazy.Undefined]).  The table is read-only after. *)
let log_factorial_cache =
  let tbl = Array.make log_factorial_cache_size 0.0 in
  for n = 2 to log_factorial_cache_size - 1 do
    tbl.(n) <- tbl.(n - 1) +. log (float_of_int n)
  done;
  tbl

let log_factorial n =
  if n < 0 then invalid_arg "Maths.log_factorial: negative argument";
  if n < log_factorial_cache_size then log_factorial_cache.(n)
  else lgamma (float_of_int n +. 1.0)

let log_choose n k =
  if k < 0 || k > n || n < 0 then neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)

let choose n k =
  if k < 0 || k > n || n < 0 then 0.0
  else begin
    let k = min k (n - k) in
    if k <= 30 && n <= 300 then begin
      (* Exact product form for small coefficients. *)
      let acc = ref 1.0 in
      for i = 1 to k do
        acc := !acc *. float_of_int (n - k + i) /. float_of_int i
      done;
      !acc
    end
    else exp (log_choose n k)
  end

let binomial_pmf ~n ~p k =
  if k < 0 || k > n then 0.0
  else if p <= 0.0 then if k = 0 then 1.0 else 0.0
  else if p >= 1.0 then if k = n then 1.0 else 0.0
  else
    let logp =
      log_choose n k
      +. (float_of_int k *. log p)
      +. (float_of_int (n - k) *. log (1.0 -. p))
    in
    exp logp

let binomial_sf ~n ~p k =
  if k <= 0 then 1.0
  else if k > n then 0.0
  else begin
    (* Sum the smaller tail directly; n is at most a few thousand in our
       models (cache blocks per structure), so direct summation is fine. *)
    let acc = ref 0.0 in
    for i = k to n do
      acc := !acc +. binomial_pmf ~n ~p i
    done;
    min 1.0 !acc
  end

let hypergeom_pmf ~total ~marked ~drawn k =
  if
    k < 0 || k > marked || k > drawn
    || drawn - k > total - marked
    || marked < 0 || drawn < 0 || total < 0 || marked > total || drawn > total
  then 0.0
  else
    exp
      (log_choose marked k
      +. log_choose (total - marked) (drawn - k)
      -. log_choose total drawn)

let hypergeom_mean ~total ~marked ~drawn =
  if total = 0 then 0.0
  else float_of_int drawn *. float_of_int marked /. float_of_int total

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x
let clampi ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let cdiv a b =
  if b <= 0 then invalid_arg "Maths.cdiv: non-positive divisor";
  if a < 0 then invalid_arg "Maths.cdiv: negative dividend";
  (a + b - 1) / b

let fceil a b =
  if b <= 0.0 then invalid_arg "Maths.fceil: non-positive divisor";
  ceil (a /. b)

let approx_equal ?(eps = 1e-9) a b =
  abs_float (a -. b) <= eps *. Float.max 1.0 (Float.max (abs_float a) (abs_float b))

let sum xs =
  (* Kahan summation: the profiling sweeps sum thousands of small DVF
     contributions and we want the totals reproducible bit-for-bit. *)
  let total = ref 0.0 and comp = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t)
    xs;
  !total

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Maths.mean: empty array";
  sum xs /. float_of_int n

let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Maths.geomean: empty array";
  let logs = Array.map (fun x ->
      if x <= 0.0 then invalid_arg "Maths.geomean: non-positive element";
      log x) xs
  in
  exp (sum logs /. float_of_int n)

let rel_error ~expected ~actual =
  if expected = 0.0 then abs_float actual
  else abs_float (actual -. expected) /. abs_float expected

let log1p = Float.log1p
let expm1 = Float.expm1

let wilson_interval ?(z = 1.959963984540054) ~successes ~trials () =
  if trials < 0 then invalid_arg "Maths.wilson_interval: negative trials";
  if successes < 0 || successes > max trials 0 then
    invalid_arg "Maths.wilson_interval: successes outside 0..trials";
  if z < 0.0 then invalid_arg "Maths.wilson_interval: negative z";
  if trials = 0 then (0.0, 1.0)
  else begin
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (p +. (z2 /. (2.0 *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
  in
  (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))
  end

(* Average ranks (1-based), ties sharing the mean of the positions they
   occupy — the standard fractional ranking Spearman's rho requires. *)
let fractional_ranks xs =
  let n = Array.length xs in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare xs.(a) xs.(b)) order;
  let ranks = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do
      incr j
    done;
    (* positions !i .. !j hold equal values; mean 1-based rank *)
    let r = (float_of_int (!i + !j) /. 2.0) +. 1.0 in
    for k = !i to !j do
      ranks.(order.(k)) <- r
    done;
    i := !j + 1
  done;
  ranks

let spearman_opt xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then
    invalid_arg "Maths.spearman: length mismatch";
  if n < 2 then None
  else begin
    let rx = fractional_ranks xs and ry = fractional_ranks ys in
    let mean_rank = float_of_int (n + 1) /. 2.0 in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = rx.(i) -. mean_rank and dy = ry.(i) -. mean_rank in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx = 0.0 || !syy = 0.0 then None
    else
      (* rounding in the product can push |rho| epsilon past 1 *)
      Some (clamp ~lo:(-1.0) ~hi:1.0 (!sxy /. sqrt (!sxx *. !syy)))
  end

let spearman xs ys = match spearman_opt xs ys with Some r -> r | None -> 0.0
