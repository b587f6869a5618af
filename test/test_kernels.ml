(* Correctness and model-vs-simulation tests for NB, MG, FT, MC — the
   remaining four kernels of Table II (VM and CG have their own suites). *)

module Nb = Kernels.Barnes_hut
module Mg = Kernels.Multigrid
module Ft = Kernels.Fft
module Mc = Kernels.Monte_carlo

(* Shared harness: run a traced kernel into a cache, compare per-structure
   simulated main-memory accesses against the analytical spec. *)
let run_into_cache cfg run =
  let registry = Memtrace.Region.create () in
  let tape = Memtrace.Tape.create () in
  let result = run registry tape in
  let cache = Fixtures.simulate cfg tape in
  (registry, Cachesim.Cache.stats cache, result)

let compare_structures ~msg ~tolerance cfg registry stats spec names =
  let modeled = Access_patterns.App_spec.main_memory_accesses ~cache:cfg spec in
  let total_sim = ref 0.0 and total_model = ref 0.0 in
  List.iter
    (fun name ->
      let region = Memtrace.Region.lookup registry name in
      let sim =
        float_of_int
          (Cachesim.Stats.main_memory_accesses stats region.Memtrace.Region.id)
      in
      total_sim := !total_sim +. sim;
      total_model := !total_model +. List.assoc name modeled)
    names;
  let err =
    Dvf_util.Maths.rel_error ~expected:!total_sim ~actual:!total_model
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: model %.0f vs sim %.0f (err %.1f%%)" msg !total_model
       !total_sim (100.0 *. err))
    true (err <= tolerance)

(* --- Barnes-Hut --- *)

let test_nb_forces_match_direct () =
  let p = Nb.make_params ~theta:0.2 200 in
  let r = Nb.run_untraced p in
  let exact = Nb.direct_forces p in
  let worst = ref 0.0 in
  Array.iteri
    (fun i (fx, fy) ->
      let ex, ey = exact.(i) in
      let mag = sqrt ((ex *. ex) +. (ey *. ey)) in
      let d = sqrt (((fx -. ex) ** 2.0) +. ((fy -. ey) ** 2.0)) in
      if mag > 1.0 then worst := Float.max !worst (d /. mag))
    r.Nb.forces;
  Alcotest.(check bool)
    (Printf.sprintf "worst relative force error %.3f" !worst)
    true (!worst < 0.05)

let test_nb_theta_controls_visits () =
  let visits theta =
    (Nb.run_untraced (Nb.make_params ~theta 500)).Nb.avg_visits
  in
  let tight = visits 0.2 and loose = visits 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "visits(0.2)=%.0f > visits(1.0)=%.0f" tight loose)
    true (tight > loose)

let test_nb_traced_matches_untraced () =
  let p = Nb.verification in
  let registry = Memtrace.Region.create () in
  let traced = Nb.run registry (Memtrace.Tape.create ()) p in
  let untraced = Nb.run_untraced p in
  Alcotest.(check int) "same node count" untraced.Nb.nodes traced.Nb.nodes;
  Alcotest.(check (float 1e-9)) "same visit count" untraced.Nb.avg_visits
    traced.Nb.avg_visits

let test_nb_model_vs_simulation () =
  let p = Nb.verification in
  List.iter
    (fun cfg ->
      let registry, stats, result = run_into_cache cfg (fun reg rc -> Nb.run reg rc p) in
      let spec = Nb.spec ~result p in
      compare_structures
        ~msg:("NB " ^ cfg.Cachesim.Config.name)
        ~tolerance:0.15 cfg registry stats spec [ "T"; "P" ])
    Cachesim.Config.[ small_verification; large_verification ]

(* --- Multigrid --- *)

let test_mg_vcycle_reduces_residual () =
  let p = Mg.make_params ~v_cycles:4 16 in
  let r = Mg.run_untraced p in
  Alcotest.(check bool)
    (Printf.sprintf "residual %.3e -> %.3e" r.Mg.initial_residual
       r.Mg.final_residual)
    true
    (r.Mg.final_residual < 0.1 *. r.Mg.initial_residual)

let test_mg_level_layout () =
  let p = Mg.make_params 32 in
  Alcotest.(check int) "finest" 32 (Mg.level_size p 0);
  Alcotest.(check int) "next" 16 (Mg.level_size p 1);
  Alcotest.(check int) "offset 1" (32 * 32 * 32) (Mg.level_offset p 1);
  Alcotest.(check int) "hierarchy"
    ((32 * 32 * 32) + (16 * 16 * 16) + (8 * 8 * 8) + (4 * 4 * 4))
    (Mg.hierarchy_elements p)

let test_mg_spec_ref_counts_match_trace () =
  (* The template generator and the traced kernel execute the same loops:
     the spec's R-template length must equal the number of traced R
     events. *)
  let p = Mg.make_params ~v_cycles:1 16 in
  let registry = Memtrace.Region.create () in
  let tape = Memtrace.Tape.create () in
  let _ = Mg.run registry tape p in
  let r_owner = (Memtrace.Region.lookup registry "R").Memtrace.Region.id in
  let traced_r =
    List.length
      (List.filter
         (fun e -> e.Memtrace.Event.owner = r_owner)
         (Memtrace.Tape.to_list tape))
  in
  let spec = Mg.spec p in
  let r_structure =
    List.find
      (fun s -> s.Access_patterns.App_spec.name = "R")
      spec.Access_patterns.App_spec.structures
  in
  let refs =
    match r_structure.Access_patterns.App_spec.pattern with
    | Some (Access_patterns.Pattern.Templated t) ->
        Array.length t.Access_patterns.Template.refs
    | _ -> Alcotest.fail "R should be templated"
  in
  Alcotest.(check int) "R refs = traced R events" traced_r refs

let test_mg_model_vs_simulation () =
  let p = Mg.make_params ~v_cycles:1 32 in
  List.iter
    (fun cfg ->
      let registry, stats, _ = run_into_cache cfg (fun reg rc -> Mg.run reg rc p) in
      compare_structures
        ~msg:("MG " ^ cfg.Cachesim.Config.name)
        ~tolerance:0.15 cfg registry stats (Mg.spec p) [ "R"; "U"; "V" ])
    Cachesim.Config.[ small_verification; large_verification ]

(* --- FFT --- *)

let test_fft_matches_naive_dft () =
  let n = 64 in
  let rng = Dvf_util.Rng.create 5 in
  let re = Array.init n (fun _ -> Dvf_util.Rng.float rng 2.0 -. 1.0) in
  let im = Array.init n (fun _ -> Dvf_util.Rng.float rng 2.0 -. 1.0) in
  let expected_re, expected_im = Ft.naive_dft re im in
  let work = Array.init n (fun i -> { Complex.re = re.(i); im = im.(i) }) in
  Ft.fft_in_place work;
  let worst = ref 0.0 in
  for k = 0 to n - 1 do
    let d_re = work.(k).Complex.re -. expected_re.(k) in
    let d_im = work.(k).Complex.im -. expected_im.(k) in
    worst := Float.max !worst (sqrt ((d_re *. d_re) +. (d_im *. d_im)))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "max |FFT - DFT| = %.2e" !worst)
    true (!worst < 1e-9)

let test_fft_roundtrip_large () =
  let result = Ft.run_untraced (Ft.make_params 4096) in
  Alcotest.(check bool)
    (Printf.sprintf "roundtrip %.2e" result.Ft.max_roundtrip_error)
    true
    (result.Ft.max_roundtrip_error < 1e-8)

let test_fft_model_vs_simulation () =
  let p = Ft.make_params 4096 (* 64 KB signal: thrashes small, fits large *) in
  List.iter
    (fun cfg ->
      let registry, stats, _ = run_into_cache cfg (fun reg rc -> Ft.run reg rc p) in
      compare_structures
        ~msg:("FT " ^ cfg.Cachesim.Config.name)
        ~tolerance:0.15 cfg registry stats (Ft.spec p) [ "X" ])
    Cachesim.Config.[ small_verification; large_verification ]

(* --- Monte Carlo --- *)

let test_mc_deterministic () =
  let p = Mc.verification in
  let a = Mc.run_untraced p and b = Mc.run_untraced p in
  Alcotest.(check (float 0.0)) "same total" a.Mc.total_xs b.Mc.total_xs

let test_mc_total_plausible () =
  (* Each lookup adds nuclides values each in roughly [0, 3]. *)
  let p = Mc.verification in
  let r = Mc.run_untraced p in
  let per_lookup = r.Mc.total_xs /. float_of_int p.Mc.lookups in
  let expected_max = 3.0 *. float_of_int p.Mc.nuclides in
  Alcotest.(check bool)
    (Printf.sprintf "per-lookup %.1f in (0, %.0f)" per_lookup expected_max)
    true
    (per_lookup > 0.0 && per_lookup < expected_max)

let test_mc_traced_matches_untraced () =
  let p = Mc.make_params 500 in
  let registry = Memtrace.Region.create () in
  let traced = Mc.run registry (Memtrace.Tape.create ()) p in
  let untraced = Mc.run_untraced p in
  Alcotest.(check (float 1e-9)) "same accumulation" untraced.Mc.total_xs
    traced.Mc.total_xs

let test_mc_model_vs_simulation () =
  let p = Mc.verification in
  List.iter
    (fun cfg ->
      let registry, stats, _ = run_into_cache cfg (fun reg rc -> Mc.run reg rc p) in
      compare_structures
        ~msg:("MC " ^ cfg.Cachesim.Config.name)
        ~tolerance:0.15 cfg registry stats (Mc.spec p) [ "G"; "E" ])
    Cachesim.Config.[ small_verification; large_verification ]

let suite =
  [
    Alcotest.test_case "NB forces match direct sum" `Slow
      test_nb_forces_match_direct;
    Alcotest.test_case "NB theta controls visits" `Quick
      test_nb_theta_controls_visits;
    Alcotest.test_case "NB traced = untraced" `Quick
      test_nb_traced_matches_untraced;
    Alcotest.test_case "NB model vs simulation" `Slow test_nb_model_vs_simulation;
    Alcotest.test_case "MG V-cycle reduces residual" `Quick
      test_mg_vcycle_reduces_residual;
    Alcotest.test_case "MG level layout" `Quick test_mg_level_layout;
    Alcotest.test_case "MG spec refs = traced events" `Quick
      test_mg_spec_ref_counts_match_trace;
    Alcotest.test_case "MG model vs simulation" `Slow test_mg_model_vs_simulation;
    Alcotest.test_case "FT matches naive DFT" `Quick test_fft_matches_naive_dft;
    Alcotest.test_case "FT roundtrip large" `Quick test_fft_roundtrip_large;
    Alcotest.test_case "FT model vs simulation" `Slow test_fft_model_vs_simulation;
    Alcotest.test_case "MC deterministic" `Quick test_mc_deterministic;
    Alcotest.test_case "MC total plausible" `Quick test_mc_total_plausible;
    Alcotest.test_case "MC traced = untraced" `Quick
      test_mc_traced_matches_untraced;
    Alcotest.test_case "MC model vs simulation" `Slow test_mc_model_vs_simulation;
  ]
