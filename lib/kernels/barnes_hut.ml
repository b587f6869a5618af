module Tracked = Memtrace.Tracked
module Ap = Access_patterns

type params = {
  particles : int;
  theta : float;
  seed : int;
  force_passes : int;
}

let make_params ?(theta = 0.5) ?(seed = 7) ?(force_passes = 1) particles =
  if particles < 2 then invalid_arg "Barnes_hut.make_params: need >= 2 particles";
  if theta <= 0.0 then invalid_arg "Barnes_hut.make_params: theta <= 0";
  if force_passes < 1 then invalid_arg "Barnes_hut.make_params: passes < 1";
  { particles; theta; seed; force_passes }

let verification = make_params 1_000
let profiling = make_params ~theta:1.0 6_000

type result = {
  nodes : int;
  avg_visits : float;
  hot_nodes : int;
  hot_visits : float;
  forces : (float * float) array;
  flops : int;
}

(* Quadtree in flat arrays.  A node is either internal (children.(4i+q)
   >= 0 for occupied quadrants) or a leaf holding one particle
   (particle.(i) >= 0).  Center of mass and total mass are accumulated
   during insertion. *)
type tree = {
  mutable count : int;
  cx : float array;           (* cell center *)
  cy : float array;
  half : float array;         (* cell half-width *)
  mass : float array;
  comx : float array;         (* center of mass (weighted sums until built) *)
  comy : float array;
  children : int array;       (* 4 per node, -1 = empty *)
  particle : int array;       (* -1 = internal or empty *)
}

let create_tree capacity =
  {
    count = 0;
    cx = Array.make capacity 0.0;
    cy = Array.make capacity 0.0;
    half = Array.make capacity 0.0;
    mass = Array.make capacity 0.0;
    comx = Array.make capacity 0.0;
    comy = Array.make capacity 0.0;
    children = Array.make (4 * capacity) (-1);
    particle = Array.make capacity (-1);
  }

let new_node tree ~cx ~cy ~half =
  let i = tree.count in
  if i >= Array.length tree.cx then failwith "Barnes_hut: tree capacity exceeded";
  tree.count <- i + 1;
  tree.cx.(i) <- cx;
  tree.cy.(i) <- cy;
  tree.half.(i) <- half;
  tree.particle.(i) <- -1;
  i

let quadrant tree node x y =
  let q = (if x >= tree.cx.(node) then 1 else 0) lor (if y >= tree.cy.(node) then 2 else 0) in
  q

let child_center tree node q =
  let h = tree.half.(node) /. 2.0 in
  let cx = tree.cx.(node) +. (if q land 1 = 1 then h else -.h) in
  let cy = tree.cy.(node) +. (if q land 2 = 2 then h else -.h) in
  (cx, cy, h)

let rec insert tree node px py pm pidx ~depth =
  tree.mass.(node) <- tree.mass.(node) +. pm;
  tree.comx.(node) <- tree.comx.(node) +. (pm *. px);
  tree.comy.(node) <- tree.comy.(node) +. (pm *. py);
  if tree.particle.(node) < 0 && tree.children.(4 * node) = -1
     && tree.children.((4 * node) + 1) = -1
     && tree.children.((4 * node) + 2) = -1
     && tree.children.((4 * node) + 3) = -1
     && tree.mass.(node) = pm
  then
    (* Empty leaf: claim it. *)
    tree.particle.(node) <- pidx
  else begin
    (* Occupied: push the resident particle (if any) down, then insert
       the new one.  Depth cap merges coincident particles into one leaf. *)
    if depth > 48 then ()
    else begin
      (match tree.particle.(node) with
      | -1 -> ()
      | resident ->
          tree.particle.(node) <- -1;
          let rx = tree.comx.(node) -. (px *. pm) and ry = tree.comy.(node) -. (py *. pm) in
          let rm = tree.mass.(node) -. pm in
          (* The resident's position must be recovered: it is the only
             other contribution, so its weighted position is the node sum
             minus the new particle's contribution. *)
          let rpx = rx /. rm and rpy = ry /. rm in
          let q = quadrant tree node rpx rpy in
          let slot = (4 * node) + q in
          (if tree.children.(slot) = -1 then begin
             let cx, cy, h = child_center tree node q in
             tree.children.(slot) <- new_node tree ~cx ~cy ~half:h
           end);
          (* Re-zero then re-add: child starts empty for the resident. *)
          insert tree tree.children.(slot) rpx rpy rm resident ~depth:(depth + 1));
      let q = quadrant tree node px py in
      let slot = (4 * node) + q in
      (if tree.children.(slot) = -1 then begin
         let cx, cy, h = child_center tree node q in
         tree.children.(slot) <- new_node tree ~cx ~cy ~half:h
       end);
      insert tree tree.children.(slot) px py pm pidx ~depth:(depth + 1)
    end
  end

let build_tree params px py pm =
  let n = params.particles in
  let tree = create_tree (8 * n + 16) in
  let root = new_node tree ~cx:0.5 ~cy:0.5 ~half:0.5 in
  for i = 0 to n - 1 do
    insert tree root px.(i) py.(i) pm.(i) i ~depth:0
  done;
  tree

(* Softened gravitational kernel; G = 1. *)
let accumulate_force ~x ~y ~mx ~my ~m (fx, fy) =
  let dx = mx -. x and dy = my -. y in
  let d2 = (dx *. dx) +. (dy *. dy) +. 1e-8 in
  let inv = m /. (d2 *. sqrt d2) in
  (fx +. (dx *. inv), fy +. (dy *. inv))

let gen_particles params =
  let rng = Dvf_util.Rng.create params.seed in
  let n = params.particles in
  let px = Array.init n (fun _ -> Dvf_util.Rng.float rng 1.0) in
  let py = Array.init n (fun _ -> Dvf_util.Rng.float rng 1.0) in
  let pm = Array.init n (fun _ -> 0.5 +. Dvf_util.Rng.float rng 1.0) in
  (px, py, pm)

(* Force on particle [i] by traversing the tree; [touch] is called with
   each tree node index visited. *)
let rec force_from tree params ~touch ~skip node x y acc =
  touch node;
  match tree.particle.(node) with
  | p when p >= 0 ->
      if p = skip then acc
      else
        accumulate_force ~x ~y
          ~mx:(tree.comx.(node) /. tree.mass.(node))
          ~my:(tree.comy.(node) /. tree.mass.(node))
          ~m:tree.mass.(node) acc
  | _ ->
      let mx = tree.comx.(node) /. tree.mass.(node)
      and my = tree.comy.(node) /. tree.mass.(node) in
      let dx = mx -. x and dy = my -. y in
      let dist = sqrt ((dx *. dx) +. (dy *. dy)) +. 1e-12 in
      if 2.0 *. tree.half.(node) /. dist < params.theta then
        accumulate_force ~x ~y ~mx ~my ~m:tree.mass.(node) acc
      else begin
        let acc = ref acc in
        for q = 0 to 3 do
          let c = tree.children.((4 * node) + q) in
          if c >= 0 then acc := force_from tree params ~touch ~skip c x y !acc
        done;
        !acc
      end

let run_with params ~touch_tree ~read_particle ~write_particle =
  let px, py, pm = gen_particles params in
  let tree = build_tree params px py pm in
  let n = params.particles in
  let forces = Array.make n (0.0, 0.0) in
  let visits = ref 0 in
  let flops = ref 0 in
  let node_visits = Array.make tree.count 0 in
  for _pass = 1 to params.force_passes do
    for i = 0 to n - 1 do
      read_particle i;
      let count = ref 0 in
      let touch node =
        incr count;
        node_visits.(node) <- node_visits.(node) + 1;
        touch_tree node
      in
      forces.(i) <-
        force_from tree params ~touch ~skip:i 0 px.(i) py.(i) (0.0, 0.0);
      visits := !visits + !count;
      flops := !flops + (12 * !count);
      write_particle i (* store the accumulated force *)
    done
  done;
  let total_lookups = params.force_passes * n in
  (* Hot set: nodes at least half of the traversals revisit. *)
  let hot_nodes = ref 0 and hot_visit_total = ref 0 in
  Array.iter
    (fun v ->
      if 2 * v >= total_lookups then begin
        incr hot_nodes;
        hot_visit_total := !hot_visit_total + v
      end)
    node_visits;
  {
    nodes = tree.count;
    avg_visits = float_of_int !visits /. float_of_int total_lookups;
    hot_nodes = !hot_nodes;
    hot_visits = float_of_int !hot_visit_total /. float_of_int total_lookups;
    forces;
    flops = !flops;
  }

let run registry tape params =
  (* Allocate the tree region after building once untraced to know the
     node count?  No: node count is deterministic from the particles, so
     build silently inside run_with; we size the region generously and
     register only the used prefix by a two-phase approach. *)
  let px, py, pm = gen_particles params in
  let tree = build_tree params px py pm in
  let t_region =
    Tracked.make registry tape ~name:"T" ~elem_size:32 tree.count ()
  in
  let p_region =
    Tracked.make registry tape ~name:"P" ~elem_size:32 params.particles ()
  in
  (* Construction pass: the random-access model assumes every element is
     traversed once before random accesses begin. *)
  for i = 0 to tree.count - 1 do
    Tracked.touch t_region i
  done;
  run_with params
    ~touch_tree:(fun node -> Tracked.touch t_region node)
    ~read_particle:(fun i -> Tracked.touch p_region i)
    ~write_particle:(fun i -> Tracked.touch_write p_region i)

let run_untraced params =
  run_with params
    ~touch_tree:(fun _ -> ())
    ~read_particle:(fun _ -> ())
    ~write_particle:(fun _ -> ())

(* Fault-injection entry.  Same particle set, tree and traversal order as
   [run_untraced]; the only difference is the [flip_at] boundary check, so
   an identity [flip] reproduces [run_untraced]'s forces bit-for-bit (the
   injector's clean reference).  Injectable floats are the concatenated
   per-field arrays: T = mass | comx | comy | cx | cy | half (6 fields per
   node), P = px | py | pm | fx | fy (5 fields per particle). *)
let injection_steps params = params.particles * params.force_passes

let run_injected params ~structure ~flip_at ~pick ~flip =
  let px, py, pm = gen_particles params in
  let tree = build_tree params px py pm in
  let n = params.particles in
  let fx = Array.make n 0.0 and fy = Array.make n 0.0 in
  let inject () =
    let fields, span =
      match structure with
      | `T ->
          (* Only the first [tree.count] slots of the capacity-sized
             arrays hold live nodes. *)
          ( [| tree.mass; tree.comx; tree.comy; tree.cx; tree.cy; tree.half |],
            tree.count )
      | `P -> ([| px; py; pm; fx; fy |], n)
    in
    let idx = pick (Array.length fields * span) in
    let field = fields.(idx / span) in
    let e = idx mod span in
    field.(e) <- flip field.(e)
  in
  let touch _ = () in
  let step = ref 0 in
  for _pass = 1 to params.force_passes do
    for i = 0 to n - 1 do
      if !step = flip_at then inject ();
      incr step;
      let x, y =
        force_from tree params ~touch ~skip:i 0 px.(i) py.(i) (0.0, 0.0)
      in
      fx.(i) <- x;
      fy.(i) <- y
    done
  done;
  if flip_at >= !step then inject ();
  Array.init n (fun i -> (fx.(i), fy.(i)))

let direct_forces params =
  let px, py, pm = gen_particles params in
  let n = params.particles in
  Array.init n (fun i ->
      let acc = ref (0.0, 0.0) in
      for j = 0 to n - 1 do
        if j <> i then
          acc := accumulate_force ~x:px.(i) ~y:py.(i) ~mx:px.(j) ~my:py.(j)
              ~m:pm.(j) !acc
      done;
      !acc)

let spec ?result params =
  let r = match result with Some r -> r | None -> run_untraced params in
  let nodes = r.nodes in
  let iterations = params.particles * params.force_passes in
  (* Exclude the always-revisited hot set from the random population and
     discount its permanent cache occupancy. *)
  let cold_nodes = max 1 (nodes - r.hot_nodes) in
  let cold_k =
    max 0 (int_of_float (Float.round (r.avg_visits -. r.hot_visits)))
  in
  let hot_bytes = 32 * r.hot_nodes in
  let structures =
    [
      {
        Ap.App_spec.name = "T";
        bytes = 32 * nodes;
        pattern =
          Some
            (Ap.Pattern.Random
               (Ap.Random_access.make ~resident_bytes:hot_bytes
                  ~elements:cold_nodes ~elem_size:32
                  ~visits:(min cold_k cold_nodes) ~iterations ~cache_ratio:1.0
                  ()));
      };
      {
        Ap.App_spec.name = "P";
        bytes = 32 * params.particles;
        pattern =
          Some
            (Ap.Pattern.Stream
               (Ap.Streaming.make ~writeback:true ~elem_size:32
                  ~elements:(params.particles * params.force_passes) ~stride:1 ()));
      };
    ]
  in
  Ap.App_spec.make ~app_name:"NB" ~structures ()
