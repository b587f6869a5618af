(* `dvf windows`: the vulnerability-vs-time report.

   Two instruments are pointed at the same question — "when during the
   run is a structure's data actually at risk?" — and correlated:

   - the *model* side is the residency histogram from a timed replay
     ([Verify.timed_level_snapshots] on the small verification cache):
     for each structure, how many line-events sat resident (and dirty)
     in each window of the run;
   - the *ground-truth* side is a flip-time-binned injection campaign
     ([Injection.run_timed]): each trial's flip is stamped with the
     fraction of the run completed when it landed, so SDC rate can be
     reported per window.

   Per structure we report Spearman's rho between windowed exposure and
   windowed SDC rate, and across structures the rho between the
   time-weighted DVF and the overall SDC rate — the Fig. 5-style
   ranking check, on the time axis (Jaulmes et al.'s
   delayed-error-reporting question, answered with data). *)

module Table = Dvf_util.Table
module Telemetry = Dvf_util.Telemetry

type bin_row = {
  w_workload : string;
  w_structure : string;
  bin : int;        (* 0-based *)
  lo : float;       (* window bounds, fractions of the run *)
  hi : float;
  resident : float; (* line-events resident in this window (clean+dirty) *)
  dirty : float;    (* the dirty share of [resident] *)
  trials : int;     (* injection trials whose flip landed in this window *)
  sdc : int;
}

type curve = {
  c_workload : string;
  c_structure : string;
  tw : float;               (* time-weighted DVF (bit-events) *)
  sdc_rate : float;         (* whole-campaign SDC rate *)
  rho_time : float option;  (* windowed exposure vs windowed SDC rate *)
}

type report = {
  r_cache : Cachesim.Config.t;
  r_bins : int;
  rows : bin_row list;
  curves : curve list;
  rho_overall : float option;  (* tw-DVF vs SDC rate across structures *)
}

let bin_rate r = if r.trials = 0 then 0.0 else float_of_int r.sdc /. float_of_int r.trials

(* rho over the windows where injection actually landed trials: empty
   windows carry no rate evidence and would only add tied zeros. *)
let rho_of_rows rows =
  let hit = List.filter (fun r -> r.trials > 0) rows in
  Dvf_util.Maths.spearman_opt
    (Array.of_list (List.map (fun r -> r.resident) hit))
    (Array.of_list (List.map bin_rate hit))

let run ?jobs ?(telemetry = Telemetry.null) ?store
    ?(seed = Injection.default_seed) ?trials
    ?(bins = Cachesim.Residency.default_bins) ?workloads () =
  if bins <= 0 then invalid_arg "Windows.run: bins must be positive";
  let workloads =
    match workloads with Some ws -> ws | None -> Workloads.all ()
  in
  let jobs =
    match jobs with
    | Some j -> j
    | None -> Dvf_util.Parallel.recommended_jobs ()
  in
  let cache = Cachesim.Config.small_verification in
  let t0 = Telemetry.now_ns telemetry in
  let per_workload =
    List.filter_map
      (fun (w : Workload.t) ->
        match
          Injection.run_timed ~seed ?trials ~jobs ~telemetry ~bins w
        with
        | None -> None
        | Some timed ->
            let cap =
              Verify.capture ~telemetry ?store
                (Workloads.verification_instance w)
            in
            let snap =
              List.hd
                (Verify.timed_level_snapshots ~telemetry ~bins
                   ~configs:[ cache ] cap)
            in
            let line_bits = float_of_int (8 * cache.Cachesim.Config.line) in
            let per_structure =
              List.map
                (fun (structure, (bin_trials, bin_sdc)) ->
                  let region =
                    Memtrace.Region.lookup cap.Verify.registry structure
                  in
                  let c =
                    Cachesim.Residency.Snapshot.owner snap
                      region.Memtrace.Region.id
                  in
                  let res_bins =
                    Cachesim.Residency.Snapshot.resident_bins c
                  in
                  let rows =
                    List.init bins (fun b ->
                        {
                          w_workload = w.Workload.name;
                          w_structure = structure;
                          bin = b;
                          lo = float_of_int b /. float_of_int bins;
                          hi = float_of_int (b + 1) /. float_of_int bins;
                          resident = float_of_int res_bins.(b);
                          dirty =
                            float_of_int
                              c.Cachesim.Residency.dirty_bins.(b);
                          trials = bin_trials.(b);
                          sdc = bin_sdc.(b);
                        })
                  in
                  let campaign =
                    List.find
                      (fun (c : Kernels.Fault_injection.campaign) ->
                        String.equal c.Kernels.Fault_injection.structure
                          structure)
                      timed.Injection.base.Injection.campaigns
                  in
                  let curve =
                    {
                      c_workload = w.Workload.name;
                      c_structure = structure;
                      tw =
                        line_bits
                        *. float_of_int
                             (Cachesim.Residency.Snapshot.resident_time c);
                      sdc_rate = Kernels.Fault_injection.sdc_rate campaign;
                      rho_time = rho_of_rows rows;
                    }
                  in
                  (rows, curve))
                timed.Injection.windows
            in
            Some per_structure)
      workloads
  in
  let per_structure = List.concat per_workload in
  let rows = List.concat_map fst per_structure in
  let curves = List.map snd per_structure in
  let rho_overall =
    Dvf_util.Maths.spearman_opt
      (Array.of_list (List.map (fun c -> c.tw) curves))
      (Array.of_list (List.map (fun c -> c.sdc_rate) curves))
  in
  if Telemetry.enabled telemetry then begin
    Telemetry.set_gauge telemetry "windows/bins" (float_of_int bins);
    Telemetry.add telemetry ~n:(List.length curves) "windows/structures";
    Telemetry.time_ns telemetry "windows/total"
      (Int64.sub (Telemetry.now_ns telemetry) t0)
  end;
  { r_cache = cache; r_bins = bins; rows; curves; rho_overall }

let window_label r =
  Printf.sprintf "[%.2f,%.2f%s" r.lo r.hi (if r.hi >= 1.0 then "]" else ")")

let to_table report =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Vulnerability vs. time (%s): windowed residency and flip-time \
            SDC rate"
           report.r_cache.Cachesim.Config.name)
      [
        ("workload", Table.Left); ("structure", Table.Left);
        ("window", Table.Left); ("resident", Table.Right);
        ("dirty", Table.Right); ("trials", Table.Right);
        ("SDC", Table.Right); ("SDC rate", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.w_workload; r.w_structure; window_label r;
          Table.cell_float r.resident; Table.cell_float r.dirty;
          string_of_int r.trials; string_of_int r.sdc;
          Printf.sprintf "%.4f" (bin_rate r);
        ])
    report.rows;
  t

let curve_table report =
  let t =
    Table.create
      ~title:"Time-weighted DVF vs. whole-campaign SDC rate"
      [
        ("workload", Table.Left); ("structure", Table.Left);
        ("tw-DVF", Table.Right); ("SDC rate", Table.Right);
        ("rho(time)", Table.Right);
      ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          c.c_workload; c.c_structure;
          Printf.sprintf "%.4g" c.tw;
          Printf.sprintf "%.4f" c.sdc_rate;
          (match c.rho_time with
          | Some rho -> Printf.sprintf "%+.3f" rho
          | None -> "n/a");
        ])
    report.curves;
  t

let pp_correlations ppf report =
  List.iter
    (fun c ->
      match c.rho_time with
      | Some rho ->
          Format.fprintf ppf
            "Spearman rho (%s/%s, windowed exposure vs SDC): %+.3f@."
            c.c_workload c.c_structure rho
      | None -> ())
    report.curves;
  match report.rho_overall with
  | Some rho ->
      Format.fprintf ppf
        "Spearman rho (tw-DVF vs SDC rate, all structures): %+.3f@." rho
  | None ->
      Format.fprintf ppf
        "Spearman rho (tw-DVF vs SDC rate, all structures): n/a@."

(* CSV of the windowed rows, one line per (workload, structure, window)
   — the artifact CI uploads. *)
let to_csv report =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "workload,structure,bin,lo,hi,resident,dirty,trials,sdc,sdc_rate\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%.4f,%.4f,%.17g,%.17g,%d,%d,%.6f\n"
           r.w_workload r.w_structure r.bin r.lo r.hi r.resident r.dirty
           r.trials r.sdc (bin_rate r)))
    report.rows;
  Buffer.contents buf
