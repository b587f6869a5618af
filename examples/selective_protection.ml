(* Selective protection — the design loop the paper motivates: rank an
   application's data structures by DVF, then find the smallest set whose
   protection meets a resilience target, instead of paying for blanket
   protection.

   Run with: dune exec examples/selective_protection.exe *)

let () =
  let cache = Cachesim.Config.profiling_4mb in
  List.iter
    (fun kernel ->
      let instance = Core.Workloads.profiling_instance kernel in
      let app =
        Core.Dvf.of_spec ~machine:Core.Perf.default_machine ~cache
          ~fit:(Core.Ecc.fit Core.Ecc.No_ecc)
          ~flops:instance.Core.Workload.flops instance.Core.Workload.spec
      in
      Printf.printf "=== %s (unprotected DVF_a %.4g) ===\n"
        instance.Core.Workload.label app.Core.Dvf.total;
      let curve = Core.Selective.coverage_curve ~scheme:Core.Ecc.Chipkill app in
      Dvf_util.Table.print (Core.Selective.to_table curve);
      (match
         Core.Selective.structures_for_target ~scheme:Core.Ecc.Chipkill
           ~target_fraction:0.10 app
       with
      | [] -> Printf.printf "already within 10%% of target\n\n"
      | names ->
          Printf.printf
            "-> chipkill-protecting {%s} keeps <= 10%% of the vulnerability\n\n"
            (String.concat ", " names)))
    [ Core.Workloads.vm; Core.Workloads.cg; Core.Workloads.mc ]
