(* Looking under the hood: instrument a kernel with the tracked-array
   substrate (the reproduction's Pin), capture its references on a tape,
   replay the tape through the LRU cache simulator, and compare
   per-structure traffic against the analytical model — the Fig. 4
   methodology on one kernel.

   Run with: dune exec examples/trace_explorer.exe *)

let () =
  let params = Kernels.Barnes_hut.make_params ~theta:0.5 500 in
  let cache_config = Cachesim.Config.small_verification in

  (* Capture once, then replay into the cache simulator. *)
  let registry = Memtrace.Region.create () in
  let tape = Memtrace.Tape.create () in
  let result = Kernels.Barnes_hut.run registry tape params in
  let cache = Cachesim.Cache.create cache_config in
  Memtrace.Tape.replay_fused tape [| cache |];
  Cachesim.Cache.flush cache;

  Printf.printf "Barnes-Hut, %d particles, theta = %.1f\n" params.Kernels.Barnes_hut.particles
    params.Kernels.Barnes_hut.theta;
  Printf.printf "  quadtree nodes:            %d\n" result.Kernels.Barnes_hut.nodes;
  Printf.printf "  avg tree visits / particle: %.1f (the model's k)\n"
    result.Kernels.Barnes_hut.avg_visits;
  Printf.printf "  hot (always-visited) nodes: %d\n" result.Kernels.Barnes_hut.hot_nodes;
  Printf.printf "  memory references traced:   %d\n\n"
    (Memtrace.Tape.length tape);

  let stats = Cachesim.Cache.stats cache in
  let spec = Kernels.Barnes_hut.spec ~result params in
  let modeled =
    Access_patterns.App_spec.main_memory_accesses ~cache:cache_config spec
  in
  let t =
    Dvf_util.Table.create
      ~title:
        (Format.asprintf "Per-structure traffic on '%a'" Cachesim.Config.pp
           cache_config)
      [
        ("structure", Dvf_util.Table.Left); ("lookups", Dvf_util.Table.Right);
        ("misses", Dvf_util.Table.Right); ("writebacks", Dvf_util.Table.Right);
        ("mem accesses", Dvf_util.Table.Right); ("model", Dvf_util.Table.Right);
      ]
  in
  List.iter
    (fun region ->
      let owner = region.Memtrace.Region.id in
      let c = Cachesim.Stats.owner_counters stats owner in
      Dvf_util.Table.add_row t
        [
          region.Memtrace.Region.name;
          string_of_int (c.Cachesim.Stats.reads + c.Cachesim.Stats.writes);
          string_of_int c.Cachesim.Stats.misses;
          string_of_int c.Cachesim.Stats.writebacks;
          string_of_int (Cachesim.Stats.main_memory_accesses stats owner);
          Printf.sprintf "%.0f"
            (List.assoc region.Memtrace.Region.name modeled);
        ])
    (Memtrace.Region.regions registry);
  Dvf_util.Table.print t
