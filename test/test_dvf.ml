module D = Core.Dvf
module M = Dvf_util.Maths

let checkf ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.12g got %.12g" msg expected actual)
    true
    (M.approx_equal ~eps expected actual)

let test_eq1_definition () =
  (* DVF_d = FIT * T * S_d * N_ha (with the documented 1e9 scale).
     FIT=5000, T=3600s (1h), S=125000 B (1 Mbit), N_ha=10:
     N_error = 5000/1e9 * 1 * 1 * 1e9 = 5000; DVF = 50000. *)
  let s = D.structure ~fit:5000.0 ~time:3600.0 ~bytes:125_000 ~n_ha:10.0 "x" in
  checkf "n_error" 5000.0 s.D.n_error;
  checkf "dvf" 50_000.0 s.D.dvf

let test_eq1_linearity () =
  let base = D.structure ~fit:100.0 ~time:10.0 ~bytes:1000 ~n_ha:5.0 "x" in
  let check2x msg s = checkf msg (2.0 *. base.D.dvf) s.D.dvf in
  check2x "2x fit" (D.structure ~fit:200.0 ~time:10.0 ~bytes:1000 ~n_ha:5.0 "x");
  check2x "2x time" (D.structure ~fit:100.0 ~time:20.0 ~bytes:1000 ~n_ha:5.0 "x");
  check2x "2x size" (D.structure ~fit:100.0 ~time:10.0 ~bytes:2000 ~n_ha:5.0 "x");
  check2x "2x accesses" (D.structure ~fit:100.0 ~time:10.0 ~bytes:1000 ~n_ha:10.0 "x")

let test_eq2_sum () =
  let app =
    D.of_counts ~fit:100.0 ~time:1.0 ~app_name:"demo"
      [ ("a", 1000, 10.0); ("b", 2000, 5.0); ("c", 500, 0.0) ]
  in
  let expected =
    List.fold_left (fun acc s -> acc +. s.D.dvf) 0.0 app.D.structures
  in
  checkf "DVF_a = sum DVF_d" expected app.D.total;
  Alcotest.(check int) "three structures" 3 (List.length app.D.structures)

let test_zero_accesses_zero_dvf () =
  let s = D.structure ~fit:5000.0 ~time:100.0 ~bytes:1000 ~n_ha:0.0 "idle" in
  checkf "zero" 0.0 s.D.dvf

let test_weighted_generalization () =
  (* alpha=1, beta=2 squares the access term. *)
  let s1 = D.structure ~fit:100.0 ~time:1.0 ~bytes:125_000 ~n_ha:3.0 "x" in
  let s2 = D.structure ~alpha:1.0 ~beta:2.0 ~fit:100.0 ~time:1.0 ~bytes:125_000 ~n_ha:3.0 "x" in
  checkf "beta=2" (s1.D.n_error *. 9.0) s2.D.dvf

let test_of_spec_matches_manual () =
  let spec = Kernels.Vm.spec Kernels.Vm.verification in
  let cache = Cachesim.Config.small_verification in
  let app =
    D.of_spec ~machine:Core.Perf.default_machine ~cache ~fit:5000.0 ~flops:0
      spec
  in
  let n_has = Access_patterns.App_spec.main_memory_accesses ~cache spec in
  List.iter
    (fun (s : D.structure_dvf) ->
      checkf ("n_ha for " ^ s.D.name) (List.assoc s.D.name n_has) s.D.n_ha)
    app.D.structures

(* The of_spec contract, exactly (no tolerance): T is the roofline on the
   app's own N_ha, N_ha is the in-order sum of the structures', and
   rescaling to the same FIT and T reproduces the app. *)
let contract_apps () =
  List.concat_map
    (fun (w : Core.Workload.t) ->
      let instance = Core.Workloads.verification_instance w in
      List.map
        (fun cache ->
          ( cache,
            instance.Core.Workload.flops,
            D.of_spec ~machine:Core.Perf.default_machine ~cache ~fit:5000.0
              ~flops:instance.Core.Workload.flops instance.Core.Workload.spec ))
        Cachesim.Config.verification_set)
    Core.Workloads.[ vm; cg; nb; mc ]

let test_of_spec_time_is_roofline () =
  List.iter
    (fun (cache, flops, (app : D.app_dvf)) ->
      Alcotest.(check (float 0.0))
        (app.D.app_name ^ " T")
        (Core.Perf.execution_time Core.Perf.default_machine ~cache ~flops
           ~n_ha:app.D.n_ha)
        app.D.time)
    (contract_apps ())

let test_of_spec_n_ha_is_sum () =
  List.iter
    (fun (_, _, (app : D.app_dvf)) ->
      Alcotest.(check (float 0.0))
        (app.D.app_name ^ " N_ha")
        (List.fold_left
           (fun acc (s : D.structure_dvf) -> acc +. s.D.n_ha)
           0.0 app.D.structures)
        app.D.n_ha)
    (contract_apps ())

let test_rescale_identity () =
  List.iter
    (fun (_, _, (app : D.app_dvf)) ->
      Alcotest.(check bool)
        (app.D.app_name ^ " rescale at its own FIT and T")
        true
        (D.rescale ~fit:app.D.fit ~time:app.D.time app = app))
    (contract_apps ())

let test_rescale_reapplies_eq1 () =
  let app =
    D.of_counts ~fit:100.0 ~time:1.0 ~app_name:"demo"
      [ ("a", 1000, 10.0); ("b", 2000, 5.0) ]
  in
  let r = D.rescale ~fit:200.0 ~time:3.0 app in
  Alcotest.(check bool) "same as of_counts at the new FIT and T" true
    (r
    = D.of_counts ~fit:200.0 ~time:3.0 ~app_name:"demo"
        [ ("a", 1000, 10.0); ("b", 2000, 5.0) ]);
  checkf "6x DVF" (6.0 *. app.D.total) r.D.total

let test_rejects_negative () =
  Alcotest.check_raises "negative n_ha"
    (Invalid_argument "Dvf.structure: negative N_ha") (fun () ->
      ignore (D.structure ~fit:1.0 ~time:1.0 ~bytes:1 ~n_ha:(-1.0) "x"))

let prop_dvf_monotone_in_every_factor =
  QCheck.Test.make ~count:100 ~name:"DVF monotone in each Eq.1 factor"
    QCheck.(
      quad (float_range 1.0 5000.0) (float_range 0.001 100.0)
        (int_range 1 1_000_000) (float_range 0.0 1.0e6))
    (fun (fit, time, bytes, n_ha) ->
      let d = (D.structure ~fit ~time ~bytes ~n_ha "x").D.dvf in
      let bigger =
        (D.structure ~fit:(fit *. 1.5) ~time ~bytes ~n_ha "x").D.dvf
      in
      bigger >= d -. 1e-12)

let suite =
  [
    Alcotest.test_case "Eq.1 definition and units" `Quick test_eq1_definition;
    Alcotest.test_case "Eq.1 linearity" `Quick test_eq1_linearity;
    Alcotest.test_case "Eq.2 summation" `Quick test_eq2_sum;
    Alcotest.test_case "zero accesses, zero DVF" `Quick
      test_zero_accesses_zero_dvf;
    Alcotest.test_case "weighted generalization" `Quick
      test_weighted_generalization;
    Alcotest.test_case "of_spec consistent" `Quick test_of_spec_matches_manual;
    Alcotest.test_case "of_spec T is the roofline on its N_ha" `Quick
      test_of_spec_time_is_roofline;
    Alcotest.test_case "of_spec N_ha is the in-order sum" `Quick
      test_of_spec_n_ha_is_sum;
    Alcotest.test_case "rescale at the same FIT and T is the identity" `Quick
      test_rescale_identity;
    Alcotest.test_case "rescale re-applies Eq.1" `Quick
      test_rescale_reapplies_eq1;
    Alcotest.test_case "rejects negative inputs" `Quick test_rejects_negative;
    QCheck_alcotest.to_alcotest prop_dvf_monotone_in_every_factor;
  ]
