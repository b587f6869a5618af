module E = Core.Ecc
module M = Dvf_util.Maths

let checkf ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.12g got %.12g" msg expected actual)
    true
    (M.approx_equal ~eps expected actual)

let test_table7_rates () =
  checkf "no ecc" 5000.0 (E.fit E.No_ecc);
  checkf "secded" 1300.0 (E.fit E.Secded);
  checkf "chipkill" 0.02 (E.fit E.Chipkill)

let test_degraded_time () =
  checkf "5%" 1.05 (E.degraded_time ~base_time:1.0 ~degradation:0.05);
  checkf "0%" 2.0 (E.degraded_time ~base_time:2.0 ~degradation:0.0);
  Alcotest.check_raises "negative"
    (Invalid_argument "Ecc.degraded_time: negative degradation") (fun () ->
      ignore (E.degraded_time ~base_time:1.0 ~degradation:(-0.1)))

let test_effective_fit_endpoints () =
  (* No investment: unprotected rate; full strength: the scheme floor. *)
  checkf "at 0" 5000.0 (E.effective_fit ~degradation:0.0 E.Secded);
  checkf "at full strength" 1300.0 (E.effective_fit ~degradation:0.05 E.Secded);
  checkf "beyond full strength" 1300.0 (E.effective_fit ~degradation:0.30 E.Secded);
  checkf "chipkill floor" 0.02 (E.effective_fit ~degradation:0.10 E.Chipkill)

let test_effective_fit_monotone () =
  let prev = ref infinity in
  for i = 0 to 20 do
    let d = 0.30 *. float_of_int i /. 20.0 in
    let f = E.effective_fit ~degradation:d E.Secded in
    Alcotest.(check bool) (Printf.sprintf "monotone at %.2f" d) true (f <= !prev +. 1e-9);
    prev := f
  done

(* The unprotected VM application every protection case starts from. *)
let vm_base () =
  Core.Dvf.of_spec ~machine:Core.Perf.default_machine
    ~cache:Cachesim.Config.profiling_4mb ~fit:(E.fit E.No_ecc) ~flops:0
    (Kernels.Vm.spec Kernels.Vm.profiling)

let test_fig7_u_shape () =
  (* The optimum sits at the scheme's full-strength point. *)
  let base = vm_base () in
  let d_opt, dvf_opt =
    E.optimal_degradation ~max_degradation:0.30 ~steps:60 E.Secded base
  in
  checkf ~eps:1e-6 "optimum at 5%" 0.05 d_opt;
  (* And the curve rises on both sides. *)
  let dvf d = (E.protected_dvf ~degradation:d E.Secded base).Core.Dvf.total in
  Alcotest.(check bool) "rises before" true (dvf 0.0 > dvf_opt);
  Alcotest.(check bool) "rises after" true (dvf 0.30 > dvf_opt)

let test_chipkill_below_secded () =
  let base = vm_base () in
  List.iter
    (fun d ->
      let dvf scheme =
        (E.protected_dvf ~degradation:d scheme base).Core.Dvf.total
      in
      Alcotest.(check bool)
        (Printf.sprintf "chipkill <= secded at %.2f" d)
        true
        (dvf E.Chipkill <= dvf E.Secded +. 1e-12))
    [ 0.0; 0.05; 0.10; 0.30 ]

let test_protection_reduces_dvf () =
  (* Fig. 7's headline: with any meaningful investment, DVF drops below
     the unprotected level. *)
  let base = vm_base () in
  let protected_ =
    (E.protected_dvf ~degradation:0.05 E.Secded base).Core.Dvf.total
  in
  Alcotest.(check bool) "secded helps" true (protected_ < base.Core.Dvf.total)

let test_no_degradation_is_rescale () =
  (* With nothing invested, protection only swaps in the scheme's
     effective FIT on the base app's N_ha and T. *)
  let base = vm_base () in
  List.iter
    (fun scheme ->
      Alcotest.(check bool) (E.name scheme) true
        (E.protected_dvf ~degradation:0.0 scheme base
        = Core.Dvf.rescale
            ~fit:(E.effective_fit ~degradation:0.0 scheme)
            ~time:base.Core.Dvf.time base))
    E.all

let suite =
  [
    Alcotest.test_case "Table VII rates" `Quick test_table7_rates;
    Alcotest.test_case "degraded time" `Quick test_degraded_time;
    Alcotest.test_case "effective FIT endpoints" `Quick
      test_effective_fit_endpoints;
    Alcotest.test_case "effective FIT monotone" `Quick
      test_effective_fit_monotone;
    Alcotest.test_case "Fig.7 U-shape" `Quick test_fig7_u_shape;
    Alcotest.test_case "chipkill below SECDED" `Quick test_chipkill_below_secded;
    Alcotest.test_case "protection reduces DVF" `Quick
      test_protection_reduces_dvf;
    Alcotest.test_case "zero degradation is a rescale" `Quick
      test_no_degradation_is_rescale;
  ]
