(* Hardware-protection study (paper §V-B, Fig. 7): how much performance is
   it worth sacrificing for ECC, and which code should you pick?

   Run with: dune exec examples/ecc_tradeoff.exe *)

let () =
  let cache = Cachesim.Config.profiling_4mb in
  let instance = Core.Workloads.profiling_instance Core.Workloads.vm in
  let base =
    Core.Dvf.of_spec ~machine:Core.Perf.default_machine ~cache
      ~fit:(Core.Ecc.fit Core.Ecc.No_ecc) ~flops:instance.Core.Workload.flops
      instance.Core.Workload.spec
  in
  Printf.printf "Application: %s, unprotected DVF_a = %.4g\n\n"
    instance.Core.Workload.label base.Core.Dvf.total;
  List.iter
    (fun scheme ->
      if scheme <> Core.Ecc.No_ecc then begin
        let degradation, dvf =
          Core.Ecc.optimal_degradation ~max_degradation:0.30 ~steps:60 scheme
            base
        in
        Printf.printf
          "%-18s floor FIT %-8g best degradation %4.1f%%  ->  DVF %.4g\n"
          (Core.Ecc.name scheme) (Core.Ecc.fit scheme) (100.0 *. degradation)
          dvf
      end)
    Core.Ecc.all;
  print_newline ();
  (* Sweep a few degradation levels to show the U-shape. *)
  let t =
    Dvf_util.Table.create ~title:"DVF vs performance invested in protection"
      [
        ("degradation %", Dvf_util.Table.Right);
        ("SECDED", Dvf_util.Table.Right); ("Chipkill", Dvf_util.Table.Right);
      ]
  in
  List.iter
    (fun pct ->
      let d = float_of_int pct /. 100.0 in
      let dvf scheme =
        (Core.Ecc.protected_dvf ~degradation:d scheme base).Core.Dvf.total
      in
      Dvf_util.Table.add_row t
        [
          string_of_int pct;
          Dvf_util.Table.cell_float (dvf Core.Ecc.Secded);
          Dvf_util.Table.cell_float (dvf Core.Ecc.Chipkill);
        ])
    [ 0; 2; 5; 10; 20; 30 ];
  Dvf_util.Table.print t;
  Printf.printf
    "Past the protection's full strength (~5%%), extra slowdown only\n\
     lengthens the exposure window and vulnerability rises again.\n"
