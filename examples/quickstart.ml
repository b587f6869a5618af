(* Quickstart: model a small application's data structures with the
   CGPMAC access patterns and compute each structure's Data Vulnerability
   Factor (paper Eq. 1-2).

   Run with: dune exec examples/quickstart.exe *)

module Ap = Access_patterns

let () =
  (* A toy stencil application with three structures:
     - [grid]:   1 M doubles, swept sequentially and written back;
     - [coeffs]: 4 K doubles, visited randomly ~16 times per timestep;
     - [halo]:   16 K doubles, strided exchange buffer. *)
  let spec =
    Ap.App_spec.make ~app_name:"stencil-demo"
      ~structures:
        [
          {
            Ap.App_spec.name = "grid";
            bytes = 8 * 1_000_000;
            pattern =
              Some
                (Ap.Pattern.Stream
                   (Ap.Streaming.make ~writeback:true ~elem_size:8
                      ~elements:1_000_000 ~stride:1 ()));
          };
          {
            Ap.App_spec.name = "coeffs";
            bytes = 8 * 4_096;
            pattern =
              Some
                (Ap.Pattern.Random
                   (Ap.Random_access.make ~elements:4_096 ~elem_size:8
                      ~visits:16 ~iterations:1_000 ~cache_ratio:0.5 ()));
          };
          {
            Ap.App_spec.name = "halo";
            bytes = 8 * 16_384;
            pattern =
              Some
                (Ap.Pattern.Stream
                   (Ap.Streaming.make ~elem_size:8 ~elements:16_384 ~stride:8 ()));
          };
        ]
      ()
  in
  (* Pick a cache (Table IV's largest) and evaluate the models once: the
     roofline execution time comes from the same N_ha as Eq. 1 per
     structure. *)
  let cache = Cachesim.Config.profiling_4mb in
  let dvf =
    Core.Dvf.of_spec ~machine:Core.Perf.default_machine ~cache
      ~fit:(Core.Ecc.fit Core.Ecc.No_ecc) ~flops:20_000_000 spec
  in
  Format.printf "%a@." Core.Dvf.pp_app dvf;
  (* The structure with the highest DVF is where selective protection
     (e.g. software checksums, replication) pays off most. *)
  let most_vulnerable =
    List.fold_left
      (fun (best : Core.Dvf.structure_dvf) s ->
        if s.Core.Dvf.dvf > best.Core.Dvf.dvf then s else best)
      (List.hd dvf.Core.Dvf.structures)
      dvf.Core.Dvf.structures
  in
  Format.printf "@.protect '%s' first: it carries %.0f%% of the application DVF@."
    most_vulnerable.Core.Dvf.name
    (100.0 *. most_vulnerable.Core.Dvf.dvf /. dvf.Core.Dvf.total)
