(* The analytic outputs pinned byte for byte.

   golden/analytic.txt holds the stdout of the model-only CLI commands
   below, each after a "$ dvf <args>" line, followed by the cache-sweep
   tables of the VM, FT and MC profiling sweeps (analytic model only,
   one domain).  Every one of these outputs comes from the CGPMAC model
   and the roofline time, so any change in how N_ha, T or the DVF is
   computed shows up here.  golden/fig5.txt holds the stdout of
   "dvf fig5", every workload's profile on the four Table IV caches,
   including the template models of MG and FT.  golden/reproduce.txt
   holds the stdout of "dvf ablation", "dvf sparse" and "dvf sweep":
   the model ablations, the sparse-CG verification and the simulated
   capacity sweeps.  golden/sweep_sim.txt holds the exact simulated
   totals (misses + writebacks, every geometry) of the VM, FT and MC
   profiling sweeps, so the trace-driven half of the sweep is pinned
   too, not only its rounded table cells.
   golden/verify_levels.txt holds the stdout of "dvf verify --levels 2"
   and "dvf verify --time-weighted --levels 2": per-level hierarchy
   traffic and per-level residency line-events of every workload, and
   golden/verify_levels3.txt the stdout of "dvf verify --time-weighted
   --levels 3", the only pin on the three-level timed walk.  Both are
   checked at -j 1, 2, 3 and 8: with two caches the engine gives -j 2
   one unsharded walk per cache, so -j 8 (4 shards) is what pins the
   sharded hierarchy walk and its residency merge end to end, and -j 3,
   an odd pool, splits each workload's nested walks unevenly between
   its domains.
   golden/windows.txt holds the stdout of "dvf windows --trials 200":
   the windowed residency of every verification capture next to the
   flip-time SDC rates of the injection campaign, and the Spearman rows
   between them.  It is checked at -j 1 and -j 2.
   The same goldens pin "dvf query": its verify, levels, timed, dvf and
   chaos ops, answered in-process, decode the served rows and render
   them through the one-shot commands' tables, byte for byte. *)

let commands =
  [
    [ "fig6"; "-j"; "2" ];
    [ "fig7" ];
    [ "profile" ];
    [ "components"; "VM"; "CG"; "NB"; "FT"; "MC" ];
    [ "protect"; "VM"; "CG"; "NB"; "FT"; "MC" ];
    [ "chaos"; "--trials"; "50" ];
    [ "inject"; "--trials"; "25"; "-j"; "2" ];
    [ "--model"; "models/vm.aspen"; "-j"; "2" ];
  ]

let exe = "../bin/dvf_cli.exe"

(* Paths in [commands] are relative to the repository root; the suite
   runs one directory below it. *)
let run_cli args =
  let args =
    List.map
      (fun a -> if String.starts_with ~prefix:"models/" a then "../" ^ a else a)
      args
  in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "dvf %s failed" (String.concat " " args)

let sweep_tables () =
  List.map
    (fun workload ->
      let instance = Core.Workloads.profiling_instance workload in
      let rows =
        Core.Experiments.cache_sweep ~jobs:1 ~simulate:false instance
      in
      Printf.sprintf "$ cache_sweep_table %s\n%s\n" workload.Core.Workload.name
        (Dvf_util.Table.render
           (Core.Experiments.cache_sweep_table
              ~label:instance.Core.Workload.label rows)))
    Core.Workloads.[ vm; ft; mc ]

(* Split "$ <command>" sections out of a golden, so a failure names the
   command. *)
let sections s =
  String.split_on_char '\n' s
  |> List.fold_left
       (fun acc line ->
         match acc with
         | _ when String.starts_with ~prefix:"$ " line -> (line, [ line ]) :: acc
         | (head, lines) :: rest -> (head, line :: lines) :: rest
         | [] -> [ ("(preamble)", [ line ]) ])
       []
  |> List.rev_map (fun (head, lines) ->
         (head, String.concat "\n" (List.rev lines)))

let test_analytic_golden () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    let golden =
      In_channel.with_open_text "golden/analytic.txt" In_channel.input_all
    in
    let produced =
      String.concat ""
        (List.map
           (fun args ->
             Printf.sprintf "$ dvf %s\n%s" (String.concat " " args)
               (run_cli args))
           commands
        @ sweep_tables ())
    in
    Alcotest.(check (list (pair string string)))
      "analytic outputs" (sections golden) (sections produced)

let test_fig5_golden () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    Alcotest.(check string)
      "dvf fig5"
      (In_channel.with_open_text "golden/fig5.txt" In_channel.input_all)
      (run_cli [ "fig5" ])

(* golden/reproduce.txt: "dvf ablation", "dvf sparse" and "dvf sweep",
   the last at -j 1 and -j 2. *)
let test_reproduce_golden () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    let golden =
      In_channel.with_open_text "golden/reproduce.txt" In_channel.input_all
    in
    let section args extra =
      Printf.sprintf "$ dvf %s\n%s" (String.concat " " args)
        (run_cli (args @ extra))
    in
    let fixed = section [ "ablation" ] [] ^ section [ "sparse" ] [] in
    List.iter
      (fun jobs ->
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "reproduction outputs, sweep -j %s" jobs)
          (sections golden)
          (sections (fixed ^ section [ "sweep" ] [ "-j"; jobs ])))
      [ "1"; "2" ]

let sweep_sim ~jobs captures =
  String.concat ""
    (List.map
       (fun (cap : Core.Verify.capture) ->
         let instance = cap.Core.Verify.instance in
         let rows =
           Core.Experiments.cache_sweep ~jobs ~simulate:true ~capture:cap
             instance
         in
         Printf.sprintf "$ sweep_sim %s\n%s" instance.Core.Workload.workload
           (String.concat ""
              (List.map
                 (fun (r : Core.Experiments.sweep_row) ->
                   Printf.sprintf "%d %.0f\n" r.Core.Experiments.capacity
                     (Option.get r.Core.Experiments.sim_n_ha))
                 rows)))
       captures)

let test_sweep_sim_golden () =
  let golden =
    In_channel.with_open_text "golden/sweep_sim.txt" In_channel.input_all
  in
  let captures =
    List.map
      (fun w -> Core.Verify.capture (Core.Workloads.profiling_instance w))
      Core.Workloads.[ vm; ft; mc ]
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "simulated sweep totals, jobs %d" jobs)
        golden (sweep_sim ~jobs captures))
    [ 1; 2 ]

(* The hierarchy and residency tables, at one and two domains, and
   then from a warm tape store: a cold [verify --tape-store] (checked
   against golden/verify_default.txt) saves every tape, so the level
   runs replay tapes that went through save and load. *)
let levels_commands =
  [ [ "verify"; "--levels"; "2" ]; [ "verify"; "--time-weighted"; "--levels"; "2" ] ]

let levels_output extra =
  String.concat ""
    (List.map
       (fun args ->
         Printf.sprintf "$ dvf %s\n%s" (String.concat " " args)
           (run_cli (args @ extra)))
       levels_commands)

let test_verify_levels_golden () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    let read path = In_channel.with_open_text path In_channel.input_all in
    let golden = read "golden/verify_levels.txt" in
    List.iter
      (fun jobs ->
        Alcotest.(check string)
          (Printf.sprintf "levels tables, -j %s" jobs)
          golden
          (levels_output [ "-j"; jobs ]))
      [ "1"; "2"; "3"; "8" ];
    let store = Filename.temp_dir "dvf_golden_store" "" in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun f -> Sys.remove (Filename.concat store f))
          (Sys.readdir store);
        Sys.rmdir store)
      (fun () ->
        Alcotest.(check string)
          "verify into a cold store"
          (read "golden/verify_default.txt")
          (run_cli [ "verify"; "--tape-store"; store ]);
        Alcotest.(check string)
          "levels tables from a warm store" golden
          (levels_output [ "--tape-store"; store ]))

let test_verify_levels3_golden () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    let golden =
      In_channel.with_open_text "golden/verify_levels3.txt" In_channel.input_all
    in
    let args = [ "verify"; "--time-weighted"; "--levels"; "3" ] in
    List.iter
      (fun jobs ->
        Alcotest.(check string)
          (Printf.sprintf "three-level timed table, -j %s" jobs)
          golden
          (Printf.sprintf "$ dvf %s\n%s" (String.concat " " args)
             (run_cli (args @ [ "-j"; jobs ]))))
      [ "1"; "2"; "3"; "8" ]

let test_windows_golden () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    let golden =
      In_channel.with_open_text "golden/windows.txt" In_channel.input_all
    in
    List.iter
      (fun jobs ->
        Alcotest.(check string)
          (Printf.sprintf "windows, -j %s" jobs)
          golden
          (run_cli [ "windows"; "--trials"; "200"; "-j"; jobs ]))
      [ "1"; "2" ]

(* The body of golden [path]'s "$ <command>" section [head]. *)
let golden_section path head =
  let rec after = function
    | [] -> Alcotest.failf "%s has no section %S" path head
    | line :: rest -> if line = head then rest else after rest
  in
  let rec body = function
    | [] | [ "" ] -> []
    | line :: _ when String.starts_with ~prefix:"$ " line -> []
    | line :: rest -> (line ^ "\n") :: body rest
  in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
  in
  String.concat "" (body (after lines))

let test_query_golden () =
  if not (Sys.file_exists exe) then Alcotest.skip ()
  else
    let read path = In_channel.with_open_text path In_channel.input_all in
    let cases =
      [
        ([ "--op"; "verify" ], read "golden/verify_default.txt");
        ( [ "--op"; "levels" ],
          golden_section "golden/verify_levels.txt" "$ dvf verify --levels 2" );
        ( [ "--op"; "timed"; "--levels"; "2" ],
          golden_section "golden/verify_levels.txt"
            "$ dvf verify --time-weighted --levels 2" );
        ([ "--op"; "dvf" ], read "golden/fig5.txt");
        ( [ "--op"; "chaos"; "--trials"; "50" ],
          golden_section "golden/analytic.txt" "$ dvf chaos --trials 50" );
      ]
    in
    List.iter
      (fun jobs ->
        List.iter
          (fun (args, expected) ->
            let args = ("query" :: args) @ [ "-j"; jobs ] in
            let name = "dvf " ^ String.concat " " args in
            match Fixtures.run_dvf args with
            | None -> Alcotest.skip ()
            | Some (status, stdout, stderr) ->
                Alcotest.(check (pair int string))
                  (name ^ ": status, stderr") (0, "") (status, stderr);
                Alcotest.(check string) name expected stdout)
          cases)
      [ "1"; "2" ]

let suite =
  [
    Alcotest.test_case "analytic outputs match golden" `Quick test_analytic_golden;
    Alcotest.test_case "fig5 matches golden" `Quick test_fig5_golden;
    Alcotest.test_case "ablation, sparse and sweep match golden" `Quick
      test_reproduce_golden;
    Alcotest.test_case "simulated sweep matches golden" `Quick
      test_sweep_sim_golden;
    Alcotest.test_case "verify levels match golden" `Quick
      test_verify_levels_golden;
    Alcotest.test_case "three-level timed verify matches golden" `Quick
      test_verify_levels3_golden;
    Alcotest.test_case "windows matches golden" `Quick test_windows_golden;
    Alcotest.test_case "dvf query renders the goldens" `Quick
      test_query_golden;
  ]
