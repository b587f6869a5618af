module Table = Dvf_util.Table

type row = {
  workload : string;
  cache : Cachesim.Config.t;
  structure : string;
  dvf : float;
  n_ha : float;
  bytes : int;
  time : float;
}

let profile_instance ?(machine = Perf.default_machine) ?(fit = Ecc.fit Ecc.No_ecc)
    ~cache (instance : Workload.instance) =
  let spec = instance.Workload.spec in
  let app =
    Dvf.of_spec ~machine ~cache ~fit ~flops:instance.Workload.flops spec
  in
  let structure_rows =
    List.map
      (fun (s : Dvf.structure_dvf) ->
        {
          workload = instance.Workload.workload;
          cache;
          structure = s.Dvf.name;
          dvf = s.Dvf.dvf;
          n_ha = s.Dvf.n_ha;
          bytes = s.Dvf.bytes;
          time = app.Dvf.time;
        })
      app.Dvf.structures
  in
  structure_rows
  @ [
      {
        workload = instance.Workload.workload;
        cache;
        structure = instance.Workload.workload;
        dvf = app.Dvf.total;
        n_ha = app.Dvf.n_ha;
        bytes = Access_patterns.App_spec.total_bytes spec;
        time = app.Dvf.time;
      };
    ]

let run_all ?machine ?fit ?(caches = Cachesim.Config.profiling_set)
    ?workloads () =
  let workloads =
    match workloads with Some ws -> ws | None -> Workloads.all ()
  in
  List.concat_map
    (fun workload ->
      let instance = Workloads.profiling_instance workload in
      List.concat_map
        (fun cache -> profile_instance ?machine ?fit ~cache instance)
        caches)
    workloads

let to_table rows =
  let t =
    Table.create
      ~title:"Fig. 5 - DVF profiling (per data structure, per cache)"
      [
        ("kernel", Table.Left); ("structure", Table.Left);
        ("cache", Table.Left); ("S_d", Table.Right); ("N_ha", Table.Right);
        ("T (s)", Table.Right); ("DVF", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.workload; r.structure; r.cache.Cachesim.Config.name;
          Format.asprintf "%a" Dvf_util.Units.pp_bytes r.bytes;
          Table.cell_float r.n_ha; Table.cell_float r.time;
          Table.cell_float r.dvf;
        ])
    rows;
  t
