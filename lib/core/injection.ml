module Fi = Kernels.Fault_injection
module Ap = Access_patterns
module Telemetry = Dvf_util.Telemetry

type result = {
  workload : string;
  label : string;
  spec : Ap.App_spec.t;
  flops : int;
  seed : int;
  campaigns : Fi.campaign list;
}

let default_seed = 1234

(* THE campaign engine: fan the full (target, trial) grid of one fault
   model over the pool.  Each trial's RNG comes from [Fi.trial_rng], the
   same derivation the serial [Fi.run_campaigns] uses, and [Pool.map]
   preserves input order, so the tallies are bit-identical to the serial
   run at any job count.  [section] namespaces the telemetry ("inject"
   for bit flips, "chaos" for component kills) so the two campaign kinds
   stay separable in one metrics document.  Returns the raw per-trial
   (outcome, fraction) grid alongside the tallies so [run_timed] can
   re-bin it. *)
let grid_raw ~telemetry ~section ~seed ~trials pool ~workload
    (fm : Fault_model.t) =
  let trials = Option.value trials ~default:fm.Fault_model.default_trials in
  if trials < 1 then invalid_arg "Injection.run: trials < 1";
  let targets = Array.of_list fm.Fault_model.targets in
  let tasks =
    Array.init
      (Array.length targets * trials)
      (fun i -> (i / trials, i mod trials))
  in
  let t0 = Telemetry.now_ns telemetry in
  let outcomes =
    Dvf_util.Parallel.Pool.map pool
      (fun (ti, t) ->
        fm.Fault_model.trial ~target:ti
          (Fi.trial_rng ~seed ~structure_index:ti ~trial:t))
      tasks
  in
  if Telemetry.enabled telemetry then begin
    let trial_ns = Int64.sub (Telemetry.now_ns telemetry) t0 in
    Telemetry.time_ns telemetry
      (Printf.sprintf "%s/%s/trials" section workload)
      trial_ns;
    Telemetry.time_ns telemetry (section ^ "/trials_total") trial_ns;
    Telemetry.add telemetry ~n:(Array.length tasks) (section ^ "/trials")
  end;
  let campaigns =
    List.mapi
      (fun ti target ->
        Fi.tally target
          (List.map fst
             (Array.to_list (Array.sub outcomes (ti * trials) trials))))
      fm.Fault_model.targets
  in
  (campaigns, outcomes, trials)

(* The historical bit-flip entry point, now a wrapper over the shared
   grid: same seeding coordinates, same tallies, byte for byte. *)
let run_raw ~telemetry ~seed ~trials pool ~workload (inj : Fi.injector) =
  let campaigns, outcomes, trials =
    grid_raw ~telemetry ~section:"inject" ~seed ~trials pool ~workload
      (Fault_model.of_injector inj)
  in
  let result =
    {
      workload;
      label = inj.Fi.label;
      spec = inj.Fi.spec;
      flops = inj.Fi.flops;
      seed;
      campaigns;
    }
  in
  (result, outcomes, trials)

let run_in_pool ~telemetry ~seed ~trials pool ~workload inj =
  let result, _, _ = run_raw ~telemetry ~seed ~trials pool ~workload inj in
  result

(* Building an injector runs each kernel once uninjected (the clean
   reference output trials compare against).  Time it separately so the
   metrics expose how that fixed cost amortizes over the campaign. *)
let make_injector ~telemetry ~workload make =
  let t0 = Telemetry.now_ns telemetry in
  let inj =
    Telemetry.span telemetry
      (Printf.sprintf "inject/%s/setup" workload)
      make
  in
  if Telemetry.enabled telemetry then
    Telemetry.time_ns telemetry "inject/setup_total"
      (Int64.sub (Telemetry.now_ns telemetry) t0);
  inj

let finalize_metrics ?(section = "inject") telemetry =
  if Telemetry.enabled telemetry then begin
    Telemetry.gauge_rate telemetry
      ~name:(section ^ "/trials_per_sec")
      ~counter:(section ^ "/trials")
      ~span:(section ^ "/trials_total");
    (* Only bit-flip campaigns have a clean reference run to amortize. *)
    let trials = Telemetry.counter_value telemetry (section ^ "/trials") in
    if String.equal section "inject" && trials > 0 then
      Telemetry.set_gauge telemetry "inject/clean_run_amortization_sec"
        (Int64.to_float (Telemetry.span_ns telemetry "inject/setup_total")
        /. 1e9 /. float_of_int trials)
  end

(* --- the generic fault-model entry points (chaos campaigns &c.) --- *)

let default_section = "campaign"

let run_model ?(seed = default_seed) ?trials ?(jobs = 1)
    ?(telemetry = Telemetry.null) ?(section = default_section) ~workload fm =
  let campaigns =
    Dvf_util.Parallel.with_pool ~telemetry ~jobs (fun pool ->
        let campaigns, _, _ =
          grid_raw ~telemetry ~section ~seed ~trials pool ~workload fm
        in
        campaigns)
  in
  finalize_metrics ~section telemetry;
  campaigns

let run_model_all ?(seed = default_seed) ?trials ?(jobs = 1)
    ?(telemetry = Telemetry.null) ?(section = default_section) models =
  let results =
    Dvf_util.Parallel.with_pool ~telemetry ~jobs (fun pool ->
        List.map
          (fun (workload, fm) ->
            let campaigns, _, _ =
              grid_raw ~telemetry ~section ~seed ~trials pool ~workload fm
            in
            (workload, campaigns))
          models)
  in
  finalize_metrics ~section telemetry;
  results

let run ?(seed = default_seed) ?trials ?(jobs = 1)
    ?(telemetry = Telemetry.null) (w : Workload.t) =
  let result =
    Option.map
      (fun make ->
        Dvf_util.Parallel.with_pool ~telemetry ~jobs (fun pool ->
            run_in_pool ~telemetry ~seed ~trials pool
              ~workload:w.Workload.name
              (make_injector ~telemetry ~workload:w.Workload.name make)))
      w.Workload.injector
  in
  finalize_metrics telemetry;
  result

let run_all ?(seed = default_seed) ?trials ?(jobs = 1)
    ?(telemetry = Telemetry.null) ws =
  let results =
    Dvf_util.Parallel.with_pool ~telemetry ~jobs (fun pool ->
        List.filter_map
          (fun (w : Workload.t) ->
            Option.map
              (fun make ->
                run_in_pool ~telemetry ~seed ~trials pool
                  ~workload:w.Workload.name
                  (make_injector ~telemetry ~workload:w.Workload.name make))
              w.Workload.injector)
          ws)
  in
  finalize_metrics telemetry;
  results

let to_table r = Fi.to_table ~title:("Fault injection: " ^ r.label) r.campaigns

(* --- flip-time-binned campaigns (`dvf windows` ground truth) --- *)

type timed = {
  base : result;
  time_bins : int;
  (* per structure: how many trials' flips landed in each flip-time bin
     of [0, 1], and how many of those were SDC *)
  windows : (string * (int array * int array)) list;
}

let default_bins = 20

let bin_of ~bins frac =
  let b = int_of_float (frac *. float_of_int bins) in
  if b < 0 then 0 else if b >= bins then bins - 1 else b

let run_timed ?(seed = default_seed) ?trials ?(jobs = 1)
    ?(telemetry = Telemetry.null) ?(bins = default_bins) (w : Workload.t) =
  if bins <= 0 then invalid_arg "Injection.run_timed: bins <= 0";
  let result =
    Option.map
      (fun make ->
        Dvf_util.Parallel.with_pool ~telemetry ~jobs (fun pool ->
            let inj =
              make_injector ~telemetry ~workload:w.Workload.name make
            in
            let base, outcomes, trials =
              run_raw ~telemetry ~seed ~trials pool ~workload:w.Workload.name
                inj
            in
            let windows =
              List.mapi
                (fun si structure ->
                  let per_bin = Array.make bins 0
                  and sdc_bin = Array.make bins 0 in
                  for t = 0 to trials - 1 do
                    let o, frac = outcomes.((si * trials) + t) in
                    let b = bin_of ~bins frac in
                    per_bin.(b) <- per_bin.(b) + 1;
                    if o = Fi.Sdc then sdc_bin.(b) <- sdc_bin.(b) + 1
                  done;
                  (structure, (per_bin, sdc_bin)))
                inj.Fi.structures
            in
            { base; time_bins = bins; windows }))
      w.Workload.injector
  in
  finalize_metrics telemetry;
  result

(* --- correlation against the analytical DVF --- *)

type row = {
  row_workload : string;
  structure : string;
  trials : int;
  sdc : int;
  rate : float;
  ci : float * float;
  dvf : float;
}

type correlation = {
  cache : Cachesim.Config.t;
  fit : float;
  rows : row list;
  per_workload : (string * float) list;
  overall : float;
}

let default_fit = 5_000.0

(* [None] when rho is undefined (single structure, or zero rank
   variance) — those workloads are dropped from the per-workload report
   and the pooled line prints "n/a". *)
let spearman_of rows =
  Dvf_util.Maths.spearman_opt
    (Array.of_list (List.map (fun r -> r.rate) rows))
    (Array.of_list (List.map (fun r -> r.dvf) rows))

let correlate ?(cache = Cachesim.Config.profiling_4mb) ?(fit = default_fit)
    ?(machine = Perf.default_machine) results =
  let rows =
    List.concat_map
      (fun r ->
        let app = Dvf.of_spec ~machine ~cache ~fit ~flops:r.flops r.spec in
        List.map
          (fun (c : Fi.campaign) ->
            let dvf =
              match
                List.find_opt
                  (fun (s : Dvf.structure_dvf) ->
                    String.equal s.Dvf.name c.Fi.structure)
                  app.Dvf.structures
              with
              | Some s -> s.Dvf.dvf
              | None ->
                  invalid_arg
                    (Printf.sprintf
                       "Injection.correlate: workload %s has no spec \
                        structure %S"
                       r.workload c.Fi.structure)
            in
            {
              row_workload = r.workload;
              structure = c.Fi.structure;
              trials = c.Fi.trials;
              sdc = c.Fi.sdc;
              rate = Fi.sdc_rate c;
              ci = Fi.sdc_interval c;
              dvf;
            })
          r.campaigns)
      results
  in
  let per_workload =
    List.filter_map
      (fun r ->
        let mine =
          List.filter (fun row -> String.equal row.row_workload r.workload) rows
        in
        Option.map (fun rho -> (r.workload, rho)) (spearman_of mine))
      results
  in
  let overall =
    match spearman_of rows with Some rho -> rho | None -> Float.nan
  in
  { cache; fit; rows; per_workload; overall }

let correlation_table c =
  let t =
    Dvf_util.Table.create
      ~title:
        (Printf.sprintf "Empirical SDC rate vs. analytical DVF (%s, FIT %g)"
           c.cache.Cachesim.Config.name c.fit)
      [
        ("workload", Dvf_util.Table.Left); ("structure", Dvf_util.Table.Left);
        ("trials", Dvf_util.Table.Right); ("SDC", Dvf_util.Table.Right);
        ("SDC rate", Dvf_util.Table.Right); ("95% CI", Dvf_util.Table.Right);
        ("DVF", Dvf_util.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let lo, hi = r.ci in
      Dvf_util.Table.add_row t
        [
          r.row_workload; r.structure; string_of_int r.trials;
          string_of_int r.sdc;
          Printf.sprintf "%.4f" r.rate;
          Printf.sprintf "[%.4f, %.4f]" lo hi;
          Printf.sprintf "%.4g" r.dvf;
        ])
    c.rows;
  t

let pp_spearman ppf c =
  List.iter
    (fun (w, rho) -> Format.fprintf ppf "Spearman rho (%s): %+.3f@." w rho)
    c.per_workload;
  if Float.is_nan c.overall then
    Format.fprintf ppf "Spearman rho (all structures): n/a@."
  else
    Format.fprintf ppf "Spearman rho (all structures): %+.3f@." c.overall
