module Tracked = Memtrace.Tracked
module Ap = Access_patterns

type params = {
  m : int;
  levels : int;
  v_cycles : int;
  post_smooth : int;
  coarse_smooth : int;
  seed : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let max_levels m =
  let rec loop l s = if s / 2 >= 4 then loop (l + 1) (s / 2) else l in
  loop 1 m

let make_params ?levels ?(v_cycles = 2) ?(post_smooth = 2) ?(coarse_smooth = 8)
    ?(seed = 11) m =
  if m < 8 || not (is_power_of_two m) then
    invalid_arg "Multigrid.make_params: m must be a power of two >= 8";
  let levels = match levels with Some l -> l | None -> max_levels m in
  if levels < 1 || m lsr (levels - 1) < 4 then
    invalid_arg "Multigrid.make_params: too many levels";
  if v_cycles < 1 then invalid_arg "Multigrid.make_params: v_cycles < 1";
  { m; levels; v_cycles; post_smooth; coarse_smooth; seed }

let verification = make_params 32
let profiling = make_params ~v_cycles:1 64

type result = {
  initial_residual : float;
  final_residual : float;
  flops : int;
}

let level_size p l =
  if l < 0 || l >= p.levels then invalid_arg "Multigrid.level_size";
  p.m lsr l

let level_offset p l =
  let off = ref 0 in
  for j = 0 to l - 1 do
    let s = level_size p j in
    off := !off + (s * s * s)
  done;
  !off

let hierarchy_elements p = level_offset p (p.levels - 1) +
  (let s = level_size p (p.levels - 1) in s * s * s)

(* Abstract storage interface: the traced/untraced kernels and the spec's
   reference-stream generator all execute the very same V-cycle through
   it, which pins the template model to the kernel's true access order. *)
module type Ops = sig
  val get_r : int -> float
  val set_r : int -> float -> unit
  val get_u : int -> float
  val set_u : int -> float -> unit
  val get_v : int -> float
end

let lin s i j k = (((i * s) + j) * s) + k

let for_interior s f =
  for i = 1 to s - 2 do
    for j = 1 to s - 2 do
      for k = 1 to s - 2 do
        f i j k
      done
    done
  done

(* [on_phase] fires before every sweep of the cycle (residual, each
   restriction, each smoothing pass, each prolongation) — the fault
   injector's hook; the default is a no-op so traced/untraced runs are
   untouched. *)
let v_cycle ?(on_phase = fun () -> ()) (module O : Ops) p ~flops =
  let finest = level_size p 0 in
  (* Relax A U_l = RHS_l in place (Gauss-Seidel, 7-point Laplacian). *)
  let smooth l ~rhs_is_v =
    let s = level_size p l in
    let off = level_offset p l in
    let s2 = s * s in
    for_interior s (fun i j k ->
        let c = off + lin s i j k in
        let rhs = if rhs_is_v then O.get_v (lin s i j k) else O.get_r c in
        let sum =
          O.get_u (c - s2) +. O.get_u (c + s2) +. O.get_u (c - s)
          +. O.get_u (c + s) +. O.get_u (c - 1) +. O.get_u (c + 1)
        in
        O.set_u c ((rhs +. sum) /. 6.0);
        flops 8)
  in
  (* R_0 = V - A U_0 on the finest level. *)
  let residual_finest () =
    let s = finest in
    let s2 = s * s in
    for_interior s (fun i j k ->
        let c = lin s i j k in
        let sum =
          O.get_u (c - s2) +. O.get_u (c + s2) +. O.get_u (c - s)
          +. O.get_u (c + s) +. O.get_u (c - 1) +. O.get_u (c + 1)
        in
        O.set_r c (O.get_v c -. ((6.0 *. O.get_u c) -. sum));
        flops 9)
  in
  (* R_{l+1} = restrict R_l (center-weighted 7-point average). *)
  let restrict l =
    let sf = level_size p l and sc = level_size p (l + 1) in
    let off_f = level_offset p l and off_c = level_offset p (l + 1) in
    let sf2 = sf * sf in
    for_interior sc (fun i j k ->
        let f = off_f + lin sf (2 * i) (2 * j) (2 * k) in
        let nbrs =
          O.get_r (f - sf2) +. O.get_r (f + sf2) +. O.get_r (f - sf)
          +. O.get_r (f + sf) +. O.get_r (f - 1) +. O.get_r (f + 1)
        in
        O.set_r (off_c + lin sc i j k) ((0.5 *. O.get_r f) +. (nbrs /. 12.0));
        flops 9)
  in
  let zero_level l =
    let s = level_size p l in
    let off = level_offset p l in
    for idx = 0 to (s * s * s) - 1 do
      O.set_u (off + idx) 0.0
    done
  in
  (* U_l += prolong U_{l+1} (piecewise-constant injection). *)
  let prolong l =
    let sf = level_size p l and sc = level_size p (l + 1) in
    let off_f = level_offset p l and off_c = level_offset p (l + 1) in
    for_interior sf (fun i j k ->
        let ci = min (i / 2) (sc - 2) and cj = min (j / 2) (sc - 2)
        and ck = min (k / 2) (sc - 2) in
        let fidx = off_f + lin sf i j k in
        O.set_u fidx (O.get_u fidx +. O.get_u (off_c + lin sc ci cj ck));
        flops 1)
  in
  (* One sawtooth V-cycle. *)
  on_phase ();
  residual_finest ();
  for l = 0 to p.levels - 2 do
    on_phase ();
    zero_level (l + 1);
    restrict l
  done;
  for _ = 1 to p.coarse_smooth do
    on_phase ();
    smooth (p.levels - 1) ~rhs_is_v:false
  done;
  for l = p.levels - 2 downto 0 do
    on_phase ();
    prolong l;
    for _ = 1 to p.post_smooth do
      on_phase ();
      smooth l ~rhs_is_v:(l = 0)
    done
  done

(* Reporting only — computed through untraced accessors so the
   instrumentation does not pollute the trace (the paper excludes
   initialization/finalization phases from the analysis). *)
let residual_norm ~get_u ~get_v p =
  let s = level_size p 0 in
  let s2 = s * s in
  let acc = ref 0.0 in
  for_interior s (fun i j k ->
      let c = lin s i j k in
      let sum =
        get_u (c - s2) +. get_u (c + s2) +. get_u (c - s)
        +. get_u (c + s) +. get_u (c - 1) +. get_u (c + 1)
      in
      let r = get_v c -. ((6.0 *. get_u c) -. sum) in
      acc := !acc +. (r *. r));
  sqrt !acc

let gen_rhs p =
  let rng = Dvf_util.Rng.create p.seed in
  let s = p.m in
  let v = Array.make (s * s * s) 0.0 in
  (* NPB MG-style sparse charges: a few +1/-1 point sources. *)
  for charge = 0 to 19 do
    let i = 1 + Dvf_util.Rng.int rng (s - 2) in
    let j = 1 + Dvf_util.Rng.int rng (s - 2) in
    let k = 1 + Dvf_util.Rng.int rng (s - 2) in
    v.(lin s i j k) <- (if charge land 1 = 0 then 1.0 else -1.0)
  done;
  v

let run_generic p ~ops ~get_u ~get_v =
  let flop_total = ref 0 in
  let flops n = flop_total := !flop_total + n in
  let initial_residual = residual_norm ~get_u ~get_v p in
  for _ = 1 to p.v_cycles do
    v_cycle ops p ~flops
  done;
  {
    initial_residual;
    final_residual = residual_norm ~get_u ~get_v p;
    flops = !flop_total;
  }

let run registry tape p =
  let total = hierarchy_elements p in
  let r = Tracked.make registry tape ~name:"R" ~elem_size:8 total 0.0 in
  let u = Tracked.make registry tape ~name:"U" ~elem_size:8 total 0.0 in
  let vrhs = Tracked.create registry tape ~name:"V" ~elem_size:8 (gen_rhs p) in
  let ops =
    (module struct
      let get_r = Tracked.get r
      let set_r = Tracked.set r
      let get_u = Tracked.get u
      let set_u = Tracked.set u
      let get_v = Tracked.get vrhs
    end : Ops)
  in
  run_generic p ~ops
    ~get_u:(Tracked.get_silent u)
    ~get_v:(Tracked.get_silent vrhs)

let run_untraced p =
  let total = hierarchy_elements p in
  let r = Array.make total 0.0 in
  let u = Array.make total 0.0 in
  let vrhs = gen_rhs p in
  let ops =
    (module struct
      let get_r i = r.(i)
      let set_r i x = r.(i) <- x
      let get_u i = u.(i)
      let set_u i x = u.(i) <- x
      let get_v i = vrhs.(i)
    end : Ops)
  in
  run_generic p ~ops ~get_u:(fun i -> u.(i)) ~get_v:(fun i -> vrhs.(i))

let injection_phases p =
  let per_cycle =
    1 (* finest residual *)
    + (p.levels - 1) (* restrictions *)
    + p.coarse_smooth
    + ((p.levels - 1) * (1 + p.post_smooth)) (* prolong + post-smooths *)
  in
  p.v_cycles * per_cycle

(* Fault-injection entry: [run_untraced] plus one flip before sweep number
   [flip_at] (or after the last sweep when [flip_at = injection_phases]).
   Returns the result and the finest-level solution sum — the observable
   output an SDC must corrupt.  [flip = Fun.id] reproduces [run_untraced]
   bit-for-bit. *)
let run_injected p ~structure ~flip_at ~pick ~flip =
  let total = hierarchy_elements p in
  let r = Array.make total 0.0 in
  let u = Array.make total 0.0 in
  let vrhs = gen_rhs p in
  let inject () =
    let target =
      match structure with `R -> r | `U -> u | `V -> vrhs
    in
    let e = pick (Array.length target) in
    target.(e) <- flip target.(e)
  in
  let step = ref 0 in
  let on_phase () =
    if !step = flip_at then inject ();
    incr step
  in
  let ops =
    (module struct
      let get_r i = r.(i)
      let set_r i x = r.(i) <- x
      let get_u i = u.(i)
      let set_u i x = u.(i) <- x
      let get_v i = vrhs.(i)
    end : Ops)
  in
  let flop_total = ref 0 in
  let flops n = flop_total := !flop_total + n in
  let get_u i = u.(i) and get_v i = vrhs.(i) in
  let initial_residual = residual_norm ~get_u ~get_v p in
  for _ = 1 to p.v_cycles do
    v_cycle ~on_phase ops p ~flops
  done;
  if flip_at >= !step then inject ();
  let result =
    {
      initial_residual;
      final_residual = residual_norm ~get_u ~get_v p;
      flops = !flop_total;
    }
  in
  let finest = p.m * p.m * p.m in
  (result, Dvf_util.Maths.sum (Array.sub u 0 finest))

(* Reference-stream generator: execute the same V-cycle with phantom
   values, recording each structure's element indices in order.  This is
   the CGPMAC template input — derived from the pseudocode (the loop nest
   above), not from a memory trace. *)
let reference_streams p =
  let r = Ref_stream.create () and u = Ref_stream.create ()
  and v = Ref_stream.create () in
  let ops =
    (module struct
      let get_r i = Ref_stream.read r i; 0.0
      let set_r i _ = Ref_stream.write r i
      let get_u i = Ref_stream.read u i; 0.0
      let set_u i _ = Ref_stream.write u i
      let get_v i = Ref_stream.read v i; 0.0
    end : Ops)
  in
  let flops _ = () in
  for _ = 1 to p.v_cycles do
    v_cycle ops p ~flops
  done;
  (Ref_stream.to_arrays r, Ref_stream.to_arrays u, Ref_stream.to_arrays v)

let spec p =
  let total_bytes = 8 * hierarchy_elements p in
  let v_bytes = 8 * p.m * p.m * p.m in
  let grand_total = float_of_int ((2 * total_bytes) + v_bytes) in
  let ratio bytes = float_of_int bytes /. grand_total in
  let r_stream, u_stream, v_stream = reference_streams p in
  let templated name bytes (refs, writes) =
    {
      Ap.App_spec.name;
      bytes;
      pattern =
        Some
          (Ap.Pattern.Templated
             (Ap.Template.make ~cache_ratio:(ratio bytes) ~writes ~elem_size:8
                refs));
    }
  in
  Ap.App_spec.make ~app_name:"MG"
    ~structures:
      [
        templated "R" total_bytes r_stream;
        templated "U" total_bytes u_stream;
        templated "V" v_bytes v_stream;
      ]
    ()

(* Make the V-cycle reference streams available to Aspen models:
   pattern template(elem = 8, provider = "mg/R") etc.  The model's
   [cycles] parameter maps to [v_cycles]; smoothing depths default as in
   [make_params]. *)
let () =
  let params_of_env env =
    let get name = List.assoc_opt name env in
    let m =
      match get "m" with
      | Some m -> m
      | None -> failwith "provider \"mg/*\": model needs integer param 'm'"
    in
    try
      make_params ?levels:(get "levels") ?v_cycles:(get "cycles")
        ?post_smooth:(get "post_smooth") ?coarse_smooth:(get "coarse_smooth")
        m
    with Invalid_argument msg -> failwith msg
  in
  let provider pick env =
    let r, u, v = reference_streams (params_of_env env) in
    let refs, writes = pick r u v in
    (refs, Some writes)
  in
  Ap.Template_provider.register "mg/R" (provider (fun r _ _ -> r));
  Ap.Template_provider.register "mg/U" (provider (fun _ u _ -> u));
  Ap.Template_provider.register "mg/V" (provider (fun _ _ v -> v))
