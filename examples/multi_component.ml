(* Beyond main memory: DVF for the cache hierarchy (the paper's §I
   generalization).  The same application model yields a DVF per hardware
   component — the memory sees a structure's misses against its full
   footprint; the cache sees every load/store against only the bytes it
   actually holds.  Which component's protection a structure needs most
   depends on its access pattern.

   Run with: dune exec examples/multi_component.exe *)

let () =
  let cache = Cachesim.Config.profiling_4mb in
  List.iter
    (fun kernel ->
      let instance = Core.Workloads.profiling_instance kernel in
      let both =
        Core.Component.both ~machine:Core.Perf.default_machine ~cache
          ~flops:instance.Core.Workload.flops instance.Core.Workload.spec
      in
      Dvf_util.Table.print (Core.Component.to_table both))
    [ Core.Workloads.vm; Core.Workloads.mc ];
  print_endline
    "Streaming structures barely reuse the cache (memory dominates);\n\
     cache-resident hot data flips the dominant component — the signal a\n\
     designer needs to choose between DRAM ECC and SRAM parity/ECC."
