module Fi = Kernels.Fault_injection

type row = {
  endpoint : string;
  weight : float;
  trials : int;
  lost : int;
  availability : float;
  ci : float * float;
  dvf : float;
}

type report = {
  workload : string;
  label : string;
  kill_fraction : float;
  killed_per_trial : int;
  components : int;
  seed : int;
  rows : row list;
  requests_lost : float;
  rho : float option;
}

let default_trials = 1000

(* Pair each endpoint's campaign with the analytical DVF of the
   components its requests touch, evaluated on the profiling-scale spec
   with the same cache/FIT/roofline defaults as Injection.correlate. *)
let report_of ~cache ~fit ~machine ~seed ~kill_fraction (w : Workload.t) graph
    campaigns =
  let inst = w.Workload.instance `Profiling in
  let app =
    Dvf.of_spec ~machine ~cache ~fit ~flops:inst.Workload.flops
      inst.Workload.spec
  in
  let dvf_of name =
    match
      List.find_opt
        (fun (s : Dvf.structure_dvf) -> String.equal s.Dvf.name name)
        app.Dvf.structures
    with
    | Some s -> s.Dvf.dvf
    | None ->
        invalid_arg
          (Printf.sprintf "Chaos.run: workload %s has no spec structure %S"
             w.Workload.name name)
  in
  let rows =
    List.map2
      (fun (e : Service_graph.endpoint) (c : Fi.campaign) ->
        let lo, hi = Fi.sdc_interval c in
        {
          endpoint = e.Service_graph.endpoint;
          weight = e.Service_graph.weight;
          trials = c.Fi.trials;
          lost = c.Fi.sdc;
          availability = 1.0 -. Fi.sdc_rate c;
          ci = (1.0 -. hi, 1.0 -. lo);
          dvf =
            List.fold_left
              (fun acc (comp : Service_graph.component) ->
                acc +. dvf_of comp.Service_graph.name)
              0.0
              (Service_graph.touched graph e);
        })
      graph.Service_graph.endpoints campaigns
  in
  let components = List.length graph.Service_graph.components in
  {
    workload = w.Workload.name;
    label =
      (Fault_model.component_kill ~kill_fraction graph).Fault_model.label;
    kill_fraction;
    killed_per_trial = Fault_model.kill_count ~kill_fraction ~components;
    components;
    seed;
    rows;
    requests_lost =
      List.fold_left
        (fun acc r -> acc +. (r.weight *. (1.0 -. r.availability)))
        0.0 rows;
    rho =
      Dvf_util.Maths.spearman_opt
        (Array.of_list (List.map (fun r -> r.availability) rows))
        (Array.of_list (List.map (fun r -> r.dvf) rows));
  }

let run ?(seed = Injection.default_seed) ?trials ?(jobs = 1)
    ?(telemetry = Dvf_util.Telemetry.null)
    ?(kill_fraction = Fault_model.default_kill_fraction)
    ?(cache = Cachesim.Config.profiling_4mb) ?(fit = Injection.default_fit)
    ?(machine = Perf.default_machine) (w : Workload.t) =
  Option.map
    (fun graph ->
      let fm = Fault_model.component_kill ~kill_fraction graph in
      let campaigns =
        Injection.run_model ~seed ?trials ~jobs ~telemetry ~section:"chaos"
          ~workload:w.Workload.name fm
      in
      report_of ~cache ~fit ~machine ~seed ~kill_fraction w graph campaigns)
    w.Workload.topology

let run_all ?(seed = Injection.default_seed) ?trials ?(jobs = 1)
    ?(telemetry = Dvf_util.Telemetry.null)
    ?(kill_fraction = Fault_model.default_kill_fraction)
    ?(cache = Cachesim.Config.profiling_4mb) ?(fit = Injection.default_fit)
    ?(machine = Perf.default_machine) ws =
  let with_graph =
    List.filter_map
      (fun (w : Workload.t) ->
        Option.map (fun g -> (w, g)) w.Workload.topology)
      ws
  in
  let results =
    Injection.run_model_all ~seed ?trials ~jobs ~telemetry ~section:"chaos"
      (List.map
         (fun ((w : Workload.t), g) ->
           (w.Workload.name, Fault_model.component_kill ~kill_fraction g))
         with_graph)
  in
  List.map2
    (fun (w, graph) (_, campaigns) ->
      report_of ~cache ~fit ~machine ~seed ~kill_fraction w graph campaigns)
    with_graph results

let to_table r =
  let t =
    Dvf_util.Table.create
      ~title:(Printf.sprintf "Chaos campaign: %s" r.label)
      [
        ("endpoint", Dvf_util.Table.Left); ("weight", Dvf_util.Table.Right);
        ("trials", Dvf_util.Table.Right); ("lost", Dvf_util.Table.Right);
        ("availability", Dvf_util.Table.Right);
        ("95% CI", Dvf_util.Table.Right); ("DVF", Dvf_util.Table.Right);
      ]
  in
  List.iter
    (fun row ->
      let lo, hi = row.ci in
      Dvf_util.Table.add_row t
        [
          row.endpoint;
          Printf.sprintf "%.2f" row.weight;
          string_of_int row.trials; string_of_int row.lost;
          Printf.sprintf "%.4f" row.availability;
          Printf.sprintf "[%.4f, %.4f]" lo hi;
          Printf.sprintf "%.4g" row.dvf;
        ])
    r.rows;
  t

let pp_summary ppf r =
  Format.fprintf ppf "requests lost (mix-weighted): %.4f@." r.requests_lost;
  match r.rho with
  | Some rho ->
      Format.fprintf ppf "Spearman rho (availability vs DVF): %+.3f@." rho
  | None -> Format.fprintf ppf "Spearman rho (availability vs DVF): n/a@."

let to_csv reports =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "workload,endpoint,weight,trials,lost,availability,ci_lo,ci_hi,dvf\n";
  List.iter
    (fun r ->
      List.iter
        (fun row ->
          let lo, hi = row.ci in
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%.17g,%d,%d,%.17g,%.17g,%.17g,%.17g\n"
               r.workload row.endpoint row.weight row.trials row.lost
               row.availability lo hi row.dvf))
        r.rows)
    reports;
  Buffer.contents buf
