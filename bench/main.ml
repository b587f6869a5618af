(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables II, IV-VII; Figures 4-7), runs the ablation studies
   DESIGN.md calls out, exercises the Aspen DSL end to end, and times the
   analytical models against the cache simulator with bechamel (the
   paper's "evaluation cost at the granularity of seconds" claim).
   Throughput of the pipeline's layers is measured by perfbench/, not
   here.

   Usage: dune exec bench/main.exe [-- section ... [-j N]]
   where section is one of: tables fig4 fig5 fig6 fig7 sweep ablation
   sparse component inject chaos aspen speed.
   With no sections every section runs.  [-j N] (or [--jobs N]) sets the
   domain count for the parallel sections (fig4, fig6, sweep, inject,
   chaos); the default is Domain.recommended_domain_count, and [-j 1]
   forces the serial path. *)

let section_header title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* Replay a captured tape into a fresh cache of geometry [cfg] and flush
   it, so its statistics count every dirty line's writeback. *)
let simulate cfg tape =
  let cache = Cachesim.Cache.create cfg in
  Memtrace.Tape.replay_fused tape [| cache |];
  Cachesim.Cache.flush cache;
  cache

(* --- Tables II, IV, V, VI, VII --- *)

let run_tables () =
  section_header "Static tables";
  Dvf_util.Table.print (Core.Experiments.table2 ());
  Dvf_util.Table.print (Core.Experiments.table4 ());
  Dvf_util.Table.print (Core.Experiments.table5 ());
  Dvf_util.Table.print (Core.Experiments.table6 ());
  Dvf_util.Table.print (Core.Experiments.table7 ())

(* --- Fig. 4: model verification --- *)

let run_fig4 ~jobs =
  section_header "Fig. 4 - Model verification (trace-driven simulation vs CGPMAC)";
  let rows = Core.Verify.run_all ~jobs () in
  Dvf_util.Table.print (Core.Verify.to_table rows);
  let summary =
    Dvf_util.Table.create ~title:"Aggregate (total-traffic) error per kernel"
      [
        ("kernel", Dvf_util.Table.Left); ("cache", Dvf_util.Table.Left);
        ("error %", Dvf_util.Table.Right); ("<= 15%?", Dvf_util.Table.Left);
      ]
  in
  List.iter
    (fun (w : Core.Workload.t) ->
      List.iter
        (fun cache ->
          let err =
            100.0 *. Core.Verify.workload_error ~rows w.Core.Workload.name cache
          in
          Dvf_util.Table.add_row summary
            [
              w.Core.Workload.name; cache.Cachesim.Config.name;
              Printf.sprintf "%.1f" err;
              (if err <= 15.0 then "yes" else "NO");
            ])
        Cachesim.Config.verification_set)
    (Core.Workloads.all ());
  Dvf_util.Table.print summary

(* --- Fig. 5: DVF profiling --- *)

let run_fig5 () =
  section_header "Fig. 5 - DVF profiling (Table VI sizes, four caches)";
  let rows = Core.Profile.run_all () in
  Dvf_util.Table.print (Core.Profile.to_table rows);
  (* The qualitative observations the paper draws from Fig. 5. *)
  let dvf workload structure cache =
    let r =
      List.find
        (fun (r : Core.Profile.row) ->
          r.Core.Profile.workload = workload
          && r.Core.Profile.structure = structure
          && r.Core.Profile.cache.Cachesim.Config.name = cache)
        rows
    in
    r.Core.Profile.dvf
  in
  Printf.printf "Observations (paper SS IV-B):\n";
  Printf.printf "  VM: DVF(A) / DVF(B) at 4MB = %.1f (A's stride makes it dominant)\n"
    (dvf "VM" "A" "4MB" /. dvf "VM" "B" "4MB");
  Printf.printf "  CG vs FT: DVF_a ratio at 4MB = %.0fx (working set + time)\n"
    (dvf "CG" "CG" "4MB" /. dvf "FT" "FT" "4MB");
  Printf.printf
    "  MC vs NB: DVF_a ratio at 16KB = %.0fx (more lookups -> more accesses)\n"
    (dvf "MC" "MC" "16KB" /. dvf "NB" "NB" "16KB");
  Printf.printf "  FT cliff: DVF_a(16KB) / DVF_a(128KB) = %.0fx (sudden jump)\n"
    (dvf "FT" "FT" "16KB" /. dvf "FT" "FT" "128KB");
  Printf.printf
    "  VM streaming stays flat: DVF_a(16KB) / DVF_a(4MB) = %.1fx (gradual)\n"
    (dvf "VM" "VM" "16KB" /. dvf "VM" "VM" "4MB")

(* --- Fig. 6: CG vs PCG --- *)

let run_fig6 ~jobs =
  section_header "Fig. 6 - Algorithm optimization (CG vs PCG)";
  let rows = Core.Experiments.fig6 ~jobs () in
  Dvf_util.Table.print (Core.Experiments.fig6_table rows);
  let crossover =
    List.find_opt
      (fun (r : Core.Experiments.fig6_row) ->
        r.Core.Experiments.pcg_dvf < r.Core.Experiments.cg_dvf)
      rows
  in
  (match crossover with
  | Some r ->
      Printf.printf
        "PCG becomes less vulnerable than CG at n = %d (paper: crossover \
         between small and large problem sizes)\n"
        r.Core.Experiments.n
  | None -> Printf.printf "no crossover observed\n")

(* --- Fig. 7: ECC protection --- *)

let run_fig7 () =
  section_header "Fig. 7 - Hardware protection (ECC) on VM";
  let rows = Core.Experiments.fig7 ~steps:30 () in
  Dvf_util.Table.print (Core.Experiments.fig7_table rows);
  let secded_opt, chipkill_opt = Core.Experiments.fig7_optimum rows in
  Printf.printf
    "DVF minimized at %.0f%% (SECDED) / %.0f%% (chipkill) degradation \
     (paper: about 5%%)\n"
    (100.0 *. secded_opt) (100.0 *. chipkill_opt)

(* --- Ablations --- *)

let run_ablation () =
  section_header "Ablation studies";
  let cache = Cachesim.Config.small_verification in

  (* (a) Eq. 8 allocation model: Bernoulli (paper-literal) vs Uniform
     (contiguous layout) against the LRU simulator on a fitting mix. *)
  let simulate_reuse ~fa ~fb =
    let line = cache.Cachesim.Config.line in
    let c = Cachesim.Cache.create cache in
    for b = 0 to fa - 1 do
      Cachesim.Cache.access c ~owner:1 ~write:false ~addr:(b * line) ~size:1
    done;
    for b = 0 to fb - 1 do
      Cachesim.Cache.access c ~owner:2 ~write:false
        ~addr:((1 lsl 24) + (b * line)) ~size:1
    done;
    let misses () =
      let snap = Cachesim.Stats.snapshot (Cachesim.Cache.stats c) in
      (Cachesim.Stats.Snapshot.owner snap 1).Cachesim.Stats.misses
    in
    let before = misses () in
    for b = 0 to fa - 1 do
      Cachesim.Cache.access c ~owner:1 ~write:false ~addr:(b * line) ~size:1
    done;
    misses () - before
  in
  let t =
    Dvf_util.Table.create
      ~title:"(a) Reuse-model allocation: Bernoulli (Eq. 8 literal) vs Uniform"
      [
        ("F_A", Dvf_util.Table.Right); ("F_B", Dvf_util.Table.Right);
        ("LRU sim", Dvf_util.Table.Right); ("bernoulli", Dvf_util.Table.Right);
        ("uniform", Dvf_util.Table.Right);
      ]
  in
  List.iter
    (fun (fa, fb) ->
      let sim = simulate_reuse ~fa ~fb in
      let model alloc =
        Access_patterns.Reuse.misses_per_reuse ~alloc ~cache ~fa ~fb
          ~scenario:`Lru_protected ()
      in
      Dvf_util.Table.add_row t
        [
          string_of_int fa; string_of_int fb; string_of_int sim;
          Printf.sprintf "%.0f" (model `Bernoulli);
          Printf.sprintf "%.0f" (model `Uniform);
        ])
    [ (100, 50); (128, 128); (64, 256); (256, 256) ];
  Dvf_util.Table.print t;

  (* (b) Template distance: stack (LRU-faithful) vs raw (paper-literal)
     on the FT reference stream. *)
  let p = Kernels.Fft.make_params 2048 in
  let spec_of distance =
    let base = Kernels.Fft.spec p in
    let s = List.hd base.Access_patterns.App_spec.structures in
    match s.Access_patterns.App_spec.pattern with
    | Some (Access_patterns.Pattern.Templated tpl) ->
        Access_patterns.Template.main_memory_accesses ~cache
          { tpl with Access_patterns.Template.distance }
    | _ -> assert false
  in
  Printf.printf
    "(b) FT 2^11 template on the 8KB cache: stack distance %.0f accesses, \
     raw distance %.0f\n"
    (spec_of `Stack) (spec_of `Raw);

  (* (c) Random-model contiguity: the paper's Belm = XE upper bound vs the
     run-length-aware estimate, against the MC simulation. *)
  let mc = Kernels.Monte_carlo.verification in
  let registry = Memtrace.Region.create () in
  let tape = Memtrace.Tape.create () in
  ignore (Kernels.Monte_carlo.run registry tape mc);
  let c = simulate cache tape in
  let sim_total =
    Cachesim.Stats.Snapshot.total_main_memory
      (Cachesim.Stats.snapshot (Cachesim.Cache.stats c))
  in
  let model_total run_length_aware =
    let spec = Kernels.Monte_carlo.spec mc in
    let adjust (s : Access_patterns.App_spec.structure) =
      match s.Access_patterns.App_spec.pattern with
      | Some (Access_patterns.Pattern.Random r) when not run_length_aware ->
          {
            s with
            Access_patterns.App_spec.pattern =
              Some
                (Access_patterns.Pattern.Random
                   { r with Access_patterns.Random_access.run_length = 1 });
          }
      | _ -> s
    in
    let spec =
      {
        spec with
        Access_patterns.App_spec.structures =
          List.map adjust spec.Access_patterns.App_spec.structures;
      }
    in
    List.fold_left
      (fun acc (_, v) -> acc +. v)
      0.0
      (Access_patterns.App_spec.main_memory_accesses ~cache spec)
  in
  Printf.printf
    "(c) MC on the 8KB cache: simulated %d; paper-literal model %.0f; \
     contiguity-aware model %.0f\n"
    sim_total (model_total false) (model_total true);

  (* (d) PCG preconditioner storage: vector vs dense matrix at n = 800. *)
  let dvf_of preconditioner =
    let params =
      Kernels.Pcg.make_params ~max_iterations:5000 ~tolerance:1e-8
        ~preconditioner 800
    in
    let result = Kernels.Pcg.run_untraced params in
    let spec =
      Kernels.Pcg.spec ~iterations:result.Kernels.Pcg.iterations params
    in
    (Core.Dvf.of_spec ~machine:Core.Perf.default_machine
       ~cache:Cachesim.Config.profiling_4mb ~fit:5000.0
       ~flops:result.Kernels.Pcg.flops spec)
      .Core.Dvf.total
  in
  let cg_row =
    List.find
      (fun (r : Core.Experiments.fig6_row) -> r.Core.Experiments.n = 800)
      (Core.Experiments.fig6 ~sizes:[ 800 ] ())
  in
  Printf.printf
    "(d) PCG at n=800: vector-Jacobi DVF %.4g, dense-matrix-M DVF %.4g, \
     plain CG %.4g\n    (the dense auxiliary matrix inverts the Fig. 6 \
     conclusion)\n"
    (dvf_of `Vector) (dvf_of `Dense_matrix) cg_row.Core.Experiments.cg_dvf

(* --- Cache-capacity sweep (Fig. 5's x-axis at full resolution) --- *)

let run_sweep ~jobs =
  section_header "Cache-capacity sweep (DVF_a, 4KB..16MB, 8-way, 64B lines)";
  (* The sweep also runs the trace-driven simulator over every geometry —
     one captured tape per workload, all geometries driven by one engine
     walk — next to the analytic model. *)
  List.iter
    (fun workload ->
      let instance = Core.Workloads.profiling_instance workload in
      let rows =
        Core.Experiments.cache_sweep ~jobs ~simulate:true instance
      in
      Dvf_util.Table.print
        (Core.Experiments.cache_sweep_table
           ~label:instance.Core.Workload.label rows))
    [ Core.Workloads.vm; Core.Workloads.ft; Core.Workloads.mc ]

(* --- Extensions: sparse CG and cache-component DVF --- *)

let run_sparse () =
  section_header "Extension: sparse CG (NPB CG's CSR shape)";
  (* Verification of the sparse model against the simulator. *)
  let p =
    Kernels.Sparse_cg.make_params ~max_iterations:8 ~tolerance:0.0
      (`Laplacian_2d 64)
  in
  let t =
    Dvf_util.Table.create ~title:"Sparse CG model verification (Fig. 4 methodology)"
      [
        ("cache", Dvf_util.Table.Left); ("simulated", Dvf_util.Table.Right);
        ("modeled", Dvf_util.Table.Right); ("error %", Dvf_util.Table.Right);
      ]
  in
  let registry = Memtrace.Region.create () in
  let tape = Memtrace.Tape.create () in
  let result = Kernels.Sparse_cg.run registry tape p in
  let spec =
    Kernels.Sparse_cg.spec ~iterations:result.Kernels.Sparse_cg.iterations p
  in
  List.iter
    (fun cfg ->
      let cache = simulate cfg tape in
      let snap = Cachesim.Stats.snapshot (Cachesim.Cache.stats cache) in
      let modeled =
        Access_patterns.App_spec.main_memory_accesses ~cache:cfg spec
      in
      let sim = ref 0.0 and model = ref 0.0 in
      List.iter
        (fun (name, m) ->
          let region = Memtrace.Region.lookup registry name in
          sim :=
            !sim
            +. float_of_int
                 (Cachesim.Stats.Snapshot.owner_main_memory snap
                    region.Memtrace.Region.id);
          model := !model +. m)
        modeled;
      Dvf_util.Table.add_row t
        [
          cfg.Cachesim.Config.name; Printf.sprintf "%.0f" !sim;
          Printf.sprintf "%.0f" !model;
          Printf.sprintf "%.1f"
            (100.0 *. Dvf_util.Maths.rel_error ~expected:!sim ~actual:!model);
        ])
    Cachesim.Config.verification_set;
  Dvf_util.Table.print t;
  (* Storage-format comparison: same tridiagonal system, dense vs CSR. *)
  let n = 800 and iterations = 20 in
  let cache = Cachesim.Config.profiling_4mb in
  let dvf spec flops =
    (Core.Dvf.of_spec ~machine:Core.Perf.default_machine ~cache ~fit:5000.0
       ~flops spec)
      .Core.Dvf.total
  in
  let dense_spec = Kernels.Cg.spec ~iterations (Kernels.Cg.make_params n) in
  let sparse_params = Kernels.Sparse_cg.make_params (`Tridiagonal n) in
  let sparse_spec = Kernels.Sparse_cg.spec ~iterations sparse_params in
  let sparse_nnz = (Kernels.Sparse_cg.run_untraced sparse_params).Kernels.Sparse_cg.nnz in
  Printf.printf
    "Same tridiagonal system, %d iterations: dense DVF_a %.4g, CSR DVF_a %.4g\n\
     (the sparse format carries %d nonzeros instead of %d entries — the\n\
     working-set term of Eq. 1 rewards compact storage)\n"
    iterations
    (dvf dense_spec (iterations * 4 * n * n))
    (dvf sparse_spec (iterations * 4 * sparse_nnz))
    sparse_nnz (n * n)

let run_component () =
  section_header "Extension: DVF for the cache component (paper SS I)";
  let cache = Cachesim.Config.profiling_4mb in
  List.iter
    (fun workload ->
      let instance = Core.Workloads.profiling_instance workload in
      Dvf_util.Table.print
        (Core.Component.to_table
           (Core.Component.both ~machine:Core.Perf.default_machine ~cache
              ~flops:instance.Core.Workload.flops instance.Core.Workload.spec)))
    (Core.Workloads.all ())

(* --- Fault injection vs DVF --- *)

let run_inject ~jobs =
  section_header
    "Fault injection vs DVF (the comparator methodology, paper SS I / SS VI)";
  let cache = Cachesim.Config.profiling_4mb in
  (* All six registered workloads through the injection subsystem, trials
     fanned out over [jobs] domains. *)
  let start = Unix.gettimeofday () in
  let results = Core.Injection.run_all ~jobs (Core.Workloads.all ()) in
  let inject_seconds = Unix.gettimeofday () -. start in
  List.iter
    (fun r -> Dvf_util.Table.print (Core.Injection.to_table r))
    results;
  let corr = Core.Injection.correlate ~cache results in
  Dvf_util.Table.print (Core.Injection.correlation_table corr);
  Format.printf "%a" Core.Injection.pp_spearman corr;
  (* VM: empirical strikes arrive proportionally to a structure's size
     and exposure time; the injection-implied vulnerability is therefore
     S_d * P(strike corrupts).  DVF's claim is that its exposure product
     ranks structures the same way. *)
  let vm_result =
    List.find (fun r -> r.Core.Injection.workload = "VM") results
  in
  let vm_spec = vm_result.Core.Injection.spec in
  let vm_dvf =
    Core.Dvf.of_spec ~machine:Core.Perf.default_machine ~cache ~fit:5000.0
      ~flops:vm_result.Core.Injection.flops vm_spec
  in
  let implied =
    List.map
      (fun (c : Kernels.Fault_injection.campaign) ->
        let bytes =
          List.assoc c.Kernels.Fault_injection.structure
            (Access_patterns.App_spec.structure_bytes vm_spec)
        in
        ( c.Kernels.Fault_injection.structure,
          float_of_int bytes *. Kernels.Fault_injection.sdc_rate c ))
      vm_result.Core.Injection.campaigns
  in
  let dvf_rank =
    List.map
      (fun (s : Core.Dvf.structure_dvf) -> s.Core.Dvf.name)
      (Core.Selective.rank vm_dvf)
  in
  Printf.printf
    "VM injection-implied vulnerability (S_d x SDC rate): %s; DVF: %s\n\
     (the implied scores are near-tied: strikes arrive per byte, and the\n\
     per-strike masking -- A's 3/4 dead stride, C's flips on still-zero\n\
     output -- cancels the S_d differences DVF's exposure product\n\
     surfaces)\n"
    (String.concat ", "
       (List.map (fun (s, v) -> Printf.sprintf "%s=%.0f" s v) implied))
    (String.concat " > " dvf_rank);
  (* CG: per-strike corruption probabilities expose what DVF abstracts
     away -- logical masking (A's flips mostly vanish into the solve) and
     algorithmic self-correction (p's corruption is detected, not
     silent). *)
  Printf.printf
    "CG: x (accumulator) is the most SDC-prone per strike; p's corruption\n\
     is caught by non-convergence; A is heavily logically masked -- the\n\
     application-semantics effect DVF's exposure metric deliberately\n\
     abstracts away (SS VI: injection 'cannot quantitatively compare ...\n\
     components' without huge trial counts).\n";
  (* The cost argument: one campaign vs one model evaluation. *)
  let start_model = Unix.gettimeofday () in
  for _ = 1 to 1000 do
    ignore (Access_patterns.App_spec.main_memory_accesses ~cache vm_spec)
  done;
  let model_seconds = (Unix.gettimeofday () -. start_model) /. 1000.0 in
  let total_trials =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (c : Kernels.Fault_injection.campaign) ->
            acc + c.Kernels.Fault_injection.trials)
          acc r.Core.Injection.campaigns)
      0 results
  in
  Printf.printf
    "cost: %d injection trials took %.2f s (-j %d); one DVF model \
     evaluation %.2e s (%.0fx)\n"
    total_trials inject_seconds jobs model_seconds
    (inject_seconds /. model_seconds)

(* --- Chaos: component-kill campaigns over the service graph --- *)

let run_chaos ~jobs =
  section_header "Chaos campaigns - component kills over the service graph";
  let report =
    match
      Core.Chaos.run ~jobs ~trials:2000 (Core.Service_workloads.workload ())
    with
    | Some r -> r
    | None -> failwith "service_graph workload lost its topology"
  in
  Dvf_util.Table.print (Core.Chaos.to_table report);
  Format.printf "%a" Core.Chaos.pp_summary report

(* --- Aspen DSL end-to-end --- *)

let run_aspen () =
  section_header "Extended-Aspen DSL (builtin models on builtin machines)";
  let file = Aspen.Builtin_models.load () in
  let machines = [ "small_verif"; "prof_16kb"; "prof_8mb" ] in
  let t =
    Dvf_util.Table.create ~title:"DVF_a computed from the DSL models"
      (("app", Dvf_util.Table.Left)
      :: List.map (fun m -> (m, Dvf_util.Table.Right)) machines)
  in
  List.iter
    (fun app_name ->
      let cells =
        List.map
          (fun machine_name ->
            let machine = Aspen.Compile.find_machine file machine_name in
            let app = Aspen.Compile.find_app file app_name in
            Dvf_util.Table.cell_float (Aspen.Compile.dvf machine app).Core.Dvf.total)
          machines
      in
      Dvf_util.Table.add_row t (app_name :: cells))
    [ "vm"; "cg"; "nb"; "mg"; "ft"; "mc" ];
  Dvf_util.Table.print t;
  (* Cross-check: the DSL's VM model against the OCaml-API spec. *)
  let machine = Aspen.Compile.find_machine file "prof_8mb" in
  let dsl_app = Aspen.Compile.find_app file "vm" in
  let dsl_nha =
    Access_patterns.App_spec.main_memory_accesses ~cache:machine.Aspen.Compile.cache
      dsl_app.Aspen.Compile.spec
  in
  let api_nha =
    Access_patterns.App_spec.main_memory_accesses ~cache:machine.Aspen.Compile.cache
      (Kernels.Vm.spec Kernels.Vm.profiling)
  in
  Printf.printf "DSL vs OCaml API, VM N_ha on prof_8mb: %s\n"
    (if List.for_all2
          (fun (_, a) (_, b) -> Dvf_util.Maths.approx_equal ~eps:1e-9 a b)
          dsl_nha api_nha
     then "identical"
     else "MISMATCH")

(* --- Speed: analytical models vs cache simulation --- *)

let run_speed () =
  section_header "Evaluation cost: analytical models vs trace-driven simulation";
  let open Bechamel in
  let cache = Cachesim.Config.small_verification in
  let vm = Kernels.Vm.verification in
  let vm_spec = Kernels.Vm.spec vm in
  let instance_spec w =
    (Core.Workloads.verification_instance w).Core.Workload.spec
  in
  let cg_spec = instance_spec Core.Workloads.cg in
  let mg_spec = instance_spec Core.Workloads.mg in
  let ft_spec = instance_spec Core.Workloads.ft in
  let mc = Kernels.Monte_carlo.verification in
  let mc_spec = Kernels.Monte_carlo.spec mc in
  let tests =
    Test.make_grouped ~name:"dvf" ~fmt:"%s %s"
      [
        Test.make ~name:"model: VM streaming spec"
          (Staged.stage (fun () ->
               ignore
                 (Access_patterns.App_spec.main_memory_accesses ~cache vm_spec)));
        Test.make ~name:"model: CG composition spec"
          (Staged.stage (fun () ->
               ignore
                 (Access_patterns.App_spec.main_memory_accesses ~cache cg_spec)));
        Test.make ~name:"model: MG template spec"
          (Staged.stage (fun () ->
               ignore
                 (Access_patterns.App_spec.main_memory_accesses ~cache mg_spec)));
        Test.make ~name:"model: FT template spec"
          (Staged.stage (fun () ->
               ignore
                 (Access_patterns.App_spec.main_memory_accesses ~cache ft_spec)));
        Test.make ~name:"model: MC random spec"
          (Staged.stage (fun () ->
               ignore
                 (Access_patterns.App_spec.main_memory_accesses ~cache mc_spec)));
        Test.make ~name:"simulation: VM trace + LRU cache"
          (Staged.stage (fun () ->
               let tape = Memtrace.Tape.create () in
               ignore (Kernels.Vm.run (Memtrace.Region.create ()) tape vm);
               ignore (simulate cache tape)));
        Test.make ~name:"simulation: MC trace + LRU cache"
          (Staged.stage (fun () ->
               let tape = Memtrace.Tape.create () in
               ignore
                 (Kernels.Monte_carlo.run (Memtrace.Region.create ()) tape mc);
               ignore (simulate cache tape)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  let t =
    Dvf_util.Table.create
      ~title:
        "Time per evaluation (the paper: model cost is 'seconds' vs hours of \
         simulation/fault injection)"
      [ ("evaluation", Dvf_util.Table.Left); ("ns/run", Dvf_util.Table.Right) ]
  in
  List.iter
    (fun (name, est) ->
      Dvf_util.Table.add_row t [ name; Printf.sprintf "%.0f" est ])
    (List.sort (fun (_, a) (_, b) -> compare a b) !rows);
  Dvf_util.Table.print t

let sections =
  [
    ("tables", fun ~jobs:_ -> run_tables ());
    ("fig4", run_fig4);
    ("fig5", fun ~jobs:_ -> run_fig5 ());
    ("fig6", run_fig6);
    ("fig7", fun ~jobs:_ -> run_fig7 ());
    ("sweep", run_sweep);
    ("ablation", fun ~jobs:_ -> run_ablation ());
    ("sparse", fun ~jobs:_ -> run_sparse ());
    ("component", fun ~jobs:_ -> run_component ());
    ("inject", run_inject);
    ("chaos", run_chaos);
    ("aspen", fun ~jobs:_ -> run_aspen ());
    ("speed", fun ~jobs:_ -> run_speed ());
  ]

let usage_error message =
  Printf.eprintf "%s (available sections: %s)\n" message
    (String.concat " " (List.map fst sections));
  exit 1

let () =
  (* Parse [-j N]/[--jobs N] out of the argument list; the rest are section
     names.  Validate every section up front so a typo exits non-zero
     before anything runs, instead of failing halfway through a sweep. *)
  let jobs = ref (Dvf_util.Parallel.recommended_jobs ()) in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: value :: rest -> (
        match int_of_string_opt value with
        | Some n when n > 0 ->
            jobs := n;
            parse acc rest
        | _ -> usage_error (Printf.sprintf "bad job count %S" value))
    | [ ("-j" | "--jobs") ] -> usage_error "-j expects a positive integer"
    | name :: rest -> parse (name :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | names -> names
  in
  let runs =
    List.map
      (fun name ->
        match List.assoc_opt name sections with
        | Some run -> run
        | None -> usage_error (Printf.sprintf "unknown section '%s'" name))
      requested
  in
  List.iter (fun run -> run ~jobs:!jobs) runs
