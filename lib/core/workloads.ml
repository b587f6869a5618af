let instance ~workload ~label ~spec ~flops ~trace =
  { Workload.workload; label; spec; flops; trace }

let vm_instance p label =
  instance ~workload:"VM" ~label ~spec:(Kernels.Vm.spec p)
    ~flops:(Kernels.Vm.flop_count p)
    ~trace:(fun reg tape -> ignore (Kernels.Vm.run reg tape p))

let cg_instance p label =
  (* The spec's iteration count is what the kernel actually executes
     (capped by max_iterations), measured on an untraced run. *)
  let result = Kernels.Cg.run_untraced p in
  instance ~workload:"CG" ~label
    ~spec:(Kernels.Cg.spec ~iterations:result.Kernels.Cg.iterations p)
    ~flops:result.Kernels.Cg.flops
    ~trace:(fun reg tape -> ignore (Kernels.Cg.run reg tape p))

let nb_instance p label =
  let result = Kernels.Barnes_hut.run_untraced p in
  instance ~workload:"NB" ~label
    ~spec:(Kernels.Barnes_hut.spec ~result p)
    ~flops:result.Kernels.Barnes_hut.flops
    ~trace:(fun reg tape -> ignore (Kernels.Barnes_hut.run reg tape p))

let mg_instance p label =
  let result = Kernels.Multigrid.run_untraced p in
  instance ~workload:"MG" ~label ~spec:(Kernels.Multigrid.spec p)
    ~flops:result.Kernels.Multigrid.flops
    ~trace:(fun reg tape -> ignore (Kernels.Multigrid.run reg tape p))

let ft_instance p label =
  let result = Kernels.Fft.run_untraced p in
  instance ~workload:"FT" ~label ~spec:(Kernels.Fft.spec p)
    ~flops:result.Kernels.Fft.flops
    ~trace:(fun reg tape -> ignore (Kernels.Fft.run reg tape p))

let mc_instance p label =
  let result = Kernels.Monte_carlo.run_untraced p in
  instance ~workload:"MC" ~label ~spec:(Kernels.Monte_carlo.spec p)
    ~flops:result.Kernels.Monte_carlo.flops
    ~trace:(fun reg tape -> ignore (Kernels.Monte_carlo.run reg tape p))

let sizes ~verification ~profiling = function
  | `Verification -> verification
  | `Profiling -> profiling

let vm =
  Workload.make ~name:"VM" ~computational_class:"Dense linear algebra"
    ~major_structures:[ "A"; "B"; "C" ] ~pattern_classes:"Streaming"
    ~example_benchmark:"Homemade code"
    ~input_size:
      (sizes ~verification:"10^3 integer array" ~profiling:"10^5 integer array")
    ~instance:(function
      | `Verification -> vm_instance Kernels.Vm.verification "VM 10^3"
      | `Profiling -> vm_instance Kernels.Vm.profiling "VM 10^5")
    ~injector:(fun () ->
      Kernels.Fault_injection.vm_injector (Kernels.Vm.make_params 2_000))
    ~aspen_source:"models/vm.aspen" ()

let cg =
  Workload.make ~name:"CG" ~computational_class:"Sparse linear algebra"
    ~major_structures:[ "A"; "x"; "p"; "r" ]
    ~pattern_classes:"Template+Reuse+Streaming" ~example_benchmark:"NPB CG"
    ~input_size:
      (sizes ~verification:"500x500 double matrix"
         ~profiling:"800x800 double matrix")
    ~instance:(function
      | `Verification ->
          (* Trace-driven simulation of the full 500x500 solve is feasible
             but slow in CI; 8 capped iterations exercise every phase. *)
          cg_instance
            (Kernels.Cg.make_params ~max_iterations:8 ~tolerance:0.0 500)
            "CG 500x500 (8 iters)"
      | `Profiling ->
          cg_instance
            (Kernels.Cg.make_params ~max_iterations:25 ~tolerance:0.0 800)
            "CG 800x800")
    ~injector:(fun () ->
      Kernels.Fault_injection.cg_injector
        (Kernels.Cg.make_params ~max_iterations:200 ~tolerance:1e-9 60))
    ~aspen_source:"models/cg.aspen" ()

let nb =
  Workload.make ~name:"NB" ~computational_class:"N-body method"
    ~major_structures:[ "T"; "P" ] ~pattern_classes:"Random"
    ~example_benchmark:"Barnes-Hut (GitHub)"
    ~input_size:
      (sizes ~verification:"1000 particles" ~profiling:"6000 particles")
    ~instance:(function
      | `Verification ->
          nb_instance Kernels.Barnes_hut.verification "NB 1000 particles"
      | `Profiling ->
          nb_instance Kernels.Barnes_hut.profiling "NB 6000 particles")
    ~injector:(fun () ->
      Kernels.Fault_injection.nb_injector (Kernels.Barnes_hut.make_params 400))
    ~aspen_source:"models/nb.aspen" ()

let mg =
  Workload.make ~name:"MG" ~computational_class:"Structured grids"
    ~major_structures:[ "R" ] ~pattern_classes:"Template-based"
    ~example_benchmark:"NPB MG"
    ~input_size:
      (sizes ~verification:"Problem class = S (32^3)"
         ~profiling:"Problem class = W (scaled to 64^3)")
    ~instance:(function
      | `Verification ->
          mg_instance (Kernels.Multigrid.make_params ~v_cycles:1 32) "MG 32^3"
      | `Profiling -> mg_instance Kernels.Multigrid.profiling "MG 64^3")
    ~injector:(fun () ->
      Kernels.Fault_injection.mg_injector
        (Kernels.Multigrid.make_params ~v_cycles:1 16))
    ~aspen_source:"models/mg.aspen" ()

let ft =
  Workload.make ~name:"FT" ~computational_class:"Spectral methods"
    ~major_structures:[ "X" ] ~pattern_classes:"Template-based"
    ~example_benchmark:"NPB FT"
    ~input_size:
      (sizes ~verification:"Problem class = S (2^14 points)"
         ~profiling:"Problem class = S (2^11 points, ~32KB)")
    ~instance:(function
      | `Verification -> ft_instance Kernels.Fft.verification "FT 2^14"
      | `Profiling -> ft_instance Kernels.Fft.profiling "FT 2^11")
    ~injector:(fun () ->
      Kernels.Fault_injection.ft_injector (Kernels.Fft.make_params 512))
    ~aspen_source:"models/ft.aspen" ()

let mc =
  Workload.make ~name:"MC" ~computational_class:"Monte Carlo"
    ~major_structures:[ "G"; "E" ] ~pattern_classes:"Random"
    ~example_benchmark:"XSBench"
    ~input_size:
      (sizes ~verification:"Size = small, lookups = 10^3"
         ~profiling:"Size = small (16384x32 grid), lookups = 10^5")
    ~instance:(function
      | `Verification ->
          mc_instance Kernels.Monte_carlo.verification "MC 10^3 lookups"
      | `Profiling ->
          mc_instance Kernels.Monte_carlo.profiling "MC 10^5 lookups")
    ~injector:(fun () ->
      Kernels.Fault_injection.mc_injector
        (Kernels.Monte_carlo.make_params ~grid_points:2_048 ~nuclides:16 2_000))
    ~aspen_source:"models/mc.aspen" ()

(* Registration happens when this module is initialized — before any
   consumer code runs, since every consumer references this module. *)
let () = List.iter Workload.register [ vm; cg; nb; mg; ft; mc ]

let all = Workload.all
let names = Workload.names
let find = Workload.find
let of_name = Workload.of_name
let register = Workload.register
let verification_instance (w : Workload.t) = w.Workload.instance `Verification
let profiling_instance (w : Workload.t) = w.Workload.instance `Profiling
let input_size_description mode (w : Workload.t) = w.Workload.input_size mode
