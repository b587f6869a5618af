module S = Core.Selective
module D = Core.Dvf
module M = Dvf_util.Maths

let checkf ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.12g got %.12g" msg expected actual)
    true
    (M.approx_equal ~eps expected actual)

let demo_app =
  D.of_counts ~fit:5000.0 ~time:0.01 ~app_name:"demo"
    [ ("big", 1_000_000, 1000.0); ("mid", 100_000, 500.0); ("small", 1_000, 10.0) ]

let test_rank_descending () =
  let names = List.map (fun (s : D.structure_dvf) -> s.D.name) (S.rank demo_app) in
  Alcotest.(check (list string)) "order" [ "big"; "mid"; "small" ] names

let test_protect_scales_by_fit_ratio () =
  let protected_ =
    S.protect_structures ~scheme:Core.Ecc.Chipkill ~names:[ "big" ] demo_app
  in
  let get app name =
    (List.find (fun (s : D.structure_dvf) -> s.D.name = name) app.D.structures)
      .D.dvf
  in
  (* Protected structure's DVF scales by 0.02/5000; the others are
     untouched. *)
  checkf "big scaled"
    (get demo_app "big" *. (0.02 /. 5000.0))
    (get protected_ "big");
  checkf "mid untouched" (get demo_app "mid") (get protected_ "mid");
  checkf "total consistent"
    (get protected_ "big" +. get protected_ "mid" +. get protected_ "small")
    protected_.D.total

let test_protect_unknown_rejected () =
  Alcotest.check_raises "unknown"
    (Invalid_argument "Selective.protect_structures: unknown structure nope")
    (fun () ->
      ignore (S.protect_structures ~scheme:Core.Ecc.Secded ~names:[ "nope" ] demo_app))

let test_coverage_curve_monotone () =
  let curve = S.coverage_curve ~scheme:Core.Ecc.Chipkill demo_app in
  Alcotest.(check int) "k = 0..3" 4 (List.length curve);
  checkf "k=0 is unprotected" demo_app.D.total
    (List.hd curve).S.residual_dvf;
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "non-increasing" true
          (b.S.residual_dvf <= a.S.residual_dvf +. 1e-12);
        monotone rest
    | _ -> ()
  in
  monotone curve;
  let final = List.nth curve 3 in
  checkf ~eps:1e-6 "everything protected"
    (demo_app.D.total *. (0.02 /. 5000.0))
    final.S.residual_dvf

let test_structures_for_target () =
  (* "big" carries most of the DVF; chipkill on it alone reaches 40%. *)
  let names =
    S.structures_for_target ~scheme:Core.Ecc.Chipkill ~target_fraction:0.40
      demo_app
  in
  Alcotest.(check (list string)) "just the big one" [ "big" ] names;
  Alcotest.check_raises "unreachable"
    (Invalid_argument
       "Selective.structures_for_target: target unreachable with this scheme")
    (fun () ->
      ignore
        (S.structures_for_target ~scheme:Core.Ecc.Chipkill
           ~target_fraction:1e-9 demo_app))

let test_on_real_kernel () =
  (* VM: protecting A alone removes most of the vulnerability. *)
  let cache = Cachesim.Config.profiling_4mb in
  let spec = Kernels.Vm.spec Kernels.Vm.profiling in
  let app =
    D.of_spec ~machine:Core.Perf.default_machine ~cache ~fit:5000.0 ~flops:0
      spec
  in
  let top = List.hd (S.rank app) in
  Alcotest.(check string) "A is the most vulnerable" "A" top.D.name;
  let curve = S.coverage_curve ~scheme:Core.Ecc.Chipkill app in
  let after_one = List.nth curve 1 in
  Alcotest.(check bool)
    (Printf.sprintf "one structure removes %.0f%%"
       (100.0 *. (1.0 -. after_one.S.residual_fraction)))
    true
    (after_one.S.residual_fraction < 0.25);
  Alcotest.(check bool) "table renders" true
    (String.length (Dvf_util.Table.render (S.to_table curve)) > 100)

(* A target outside (0, 1] is refused before any table is printed. *)
let test_cli_rejects_bad_target () =
  List.iter
    (fun target ->
      match Fixtures.run_dvf [ "protect"; "-t"; target; "VM"; "CG" ] with
      | None -> Alcotest.skip ()
      | Some (status, stdout, stderr) ->
          Alcotest.(check int) ("exit status, -t " ^ target) 1 status;
          Alcotest.(check string) ("stdout, -t " ^ target) "" stdout;
          Alcotest.(check string) ("stderr, -t " ^ target)
            (Printf.sprintf
               "error: --target expects a value in (0, 1] (got %s)\n" target)
            stderr)
    [ "0"; "1.5"; "nan" ]

(* A target in range that no protection set reaches is an error for
   that workload: its table still prints, the message goes to stderr
   and the exit status is 1 once every named workload is done. *)
let test_cli_unreachable_target () =
  match Fixtures.run_dvf [ "protect"; "-t"; "1e-30"; "VM"; "CG" ] with
  | None -> Alcotest.skip ()
  | Some (status, stdout, stderr) ->
      Alcotest.(check int) "exit status" 1 status;
      let contains s sub =
        let n = String.length sub in
        let rec scan i =
          i + n <= String.length s && (String.sub s i n = sub || scan (i + 1))
        in
        scan 0
      in
      List.iter
        (fun header ->
          Alcotest.(check bool) ("stdout has " ^ header) true
            (contains stdout header))
        [ "=== VM "; "=== CG " ];
      Alcotest.(check bool) "no error on stdout" false
        (contains stdout "unreachable");
      Alcotest.(check string) "stderr"
        (String.concat ""
           (List.map
              (fun w ->
                Printf.sprintf
                  "error: %s: Selective.structures_for_target: target \
                   unreachable with this scheme\n"
                  w)
              [ "VM"; "CG" ]))
        stderr

let suite =
  [
    Alcotest.test_case "rank descending" `Quick test_rank_descending;
    Alcotest.test_case "protect scales by FIT ratio" `Quick
      test_protect_scales_by_fit_ratio;
    Alcotest.test_case "unknown structure rejected" `Quick
      test_protect_unknown_rejected;
    Alcotest.test_case "coverage curve monotone" `Quick
      test_coverage_curve_monotone;
    Alcotest.test_case "structures for target" `Quick test_structures_for_target;
    Alcotest.test_case "on a real kernel" `Quick test_on_real_kernel;
    Alcotest.test_case "CLI rejects a target outside (0,1]" `Quick
      test_cli_rejects_bad_target;
    Alcotest.test_case "CLI reports an unreachable target" `Quick
      test_cli_unreachable_target;
  ]
