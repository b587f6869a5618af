(* dvf — command-line front end to the DVF library.

   Subcommands:
     profile     evaluate an Aspen model file and print per-structure DVF
     verify      Fig. 4 model-vs-simulation verification
     tables      print the paper's static tables
     fig5/6/7    reproduce the evaluation figures
     parse       syntax-check and pretty-print a model file
     models      list the builtin models and machines
     components  memory-DVF vs cache-DVF per structure
     protect     selective-protection coverage curves
     inject      parallel fault-injection campaigns vs the analytical DVF
     windows     vulnerability-vs-time: windowed residency vs flip-time SDC
     serve       long-lived line-JSON query daemon over warm trace tapes
     query       one-shot client for serve's protocol (or in-process)
     tape        inspect persistent .dvftape trace files (tape info)

   Shared arguments (-j/--jobs, --seed, --csv, -m/--machine, --metrics,
   --tape-store) are declared once in Cli_common and composed per
   subcommand. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let handle_aspen_errors f =
  try f () with
  | e -> (
      match Aspen.Errors.to_string e with
      | Some message ->
          Printf.eprintf "error: %s\n" message;
          exit 1
      | None -> raise e)

let load_models = function
  | None -> Aspen.Builtin_models.load ()
  | Some path -> Aspen.Parser.parse_file (read_file path)

(* --- profile --- *)

let profile_cmd =
  let app_names =
    let doc = "Apps to profile (default: every app in the file)." in
    Arg.(value & pos_all string [] & info [] ~docv:"APP" ~doc)
  in
  let run file machine_name overrides app_names =
    handle_aspen_errors (fun () ->
        let file = load_models file in
        let machine = Aspen.Compile.find_machine file machine_name in
        let apps =
          match app_names with
          | [] -> Aspen.Compile.apps ~overrides file
          | names ->
              List.map (Aspen.Compile.find_app ~overrides file) names
        in
        Printf.printf "machine %s: %s, FIT=%g\n\n"
          machine.Aspen.Compile.machine_name
          (Format.asprintf "%a" Cachesim.Config.pp machine.Aspen.Compile.cache)
          machine.Aspen.Compile.fit;
        List.iter
          (fun app ->
            let d = Aspen.Compile.dvf machine app in
            Format.printf "%a@.@." Core.Dvf.pp_app d)
          apps)
  in
  let term =
    Term.(
      const run $ Cli_common.model_file $ Cli_common.machine_name
      $ Cli_common.param_overrides $ app_names)
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Evaluate Aspen models and print per-structure DVF")
    term

(* --- verify --- *)

let verify_cmd =
  let time_weighted =
    let doc =
      "Report time-weighted residency per structure instead of the \
       Fig. 4 traffic comparison: clean/dirty line-time integrals over \
       the tape's logical clock, windowed into $(b,--bins) slices, and \
       the time-weighted DVF; honours $(b,--levels)."
    in
    Arg.(value & flag & info [ "time-weighted" ] ~doc)
  in
  let run jobs metrics levels tape_store time_weighted bins workloads =
    let jobs = Cli_common.check_jobs jobs in
    let levels = Cli_common.check_levels levels in
    let bins = Cli_common.check_bins bins in
    Cli_common.with_metrics metrics (fun telemetry ->
        let store = Cli_common.open_tape_store ~telemetry tape_store in
        if time_weighted then
          Dvf_util.Table.print
            (Core.Verify.to_time_table
               (Core.Verify.run_all_timed ~jobs ~telemetry ?store ~workloads
                  ~levels ~bins ()))
        else if levels = 1 then
          Dvf_util.Table.print
            (Core.Verify.to_table
               (Core.Verify.run_all ~jobs ~telemetry ?store ~workloads ()))
        else
          Dvf_util.Table.print
            (Core.Verify.to_level_table
               (Core.Verify.run_all_levels ~jobs ~telemetry ?store ~workloads
                  ~levels ())))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Fig. 4: trace-driven simulation vs the analytical models \
          (per-level traffic with --levels > 1)")
    Term.(
      const run $ Cli_common.jobs $ Cli_common.metrics $ Cli_common.levels
      $ Cli_common.tape_store $ time_weighted $ Cli_common.bins
      $ Cli_common.workload_pos_args)

(* --- figure/table reproductions --- *)

let simple_cmd name doc run =
  Cmd.v (Cmd.info name ~doc) Term.(const run $ const ())

let tables_cmd =
  simple_cmd "tables" "Print Tables II, IV, V, VI and VII" (fun () ->
      Dvf_util.Table.print (Core.Experiments.table2 ());
      Dvf_util.Table.print (Core.Experiments.table4 ());
      Dvf_util.Table.print (Core.Experiments.table5 ());
      Dvf_util.Table.print (Core.Experiments.table6 ());
      Dvf_util.Table.print (Core.Experiments.table7 ()))

let fig5_cmd =
  simple_cmd "fig5" "DVF profiling across the four Table IV caches" (fun () ->
      Dvf_util.Table.print (Core.Profile.to_table (Core.Profile.run_all ())))

let fig6_cmd =
  let run jobs metrics levels =
    let jobs = Cli_common.check_jobs jobs in
    let levels = Cli_common.check_levels levels in
    Cli_common.with_metrics metrics (fun telemetry ->
        (* One analytic sweep per hierarchy level: level 1 is the classic
           4MB profiling cache (stdout unchanged at --levels 1); deeper
           levels re-evaluate DVF at that level's derived geometry. *)
        let configs =
          Cachesim.Config.hierarchy_of ~levels Cachesim.Config.profiling_4mb
        in
        List.iteri
          (fun i cache ->
            if i > 0 then
              Printf.printf "=== L%d: %s ===\n" (i + 1)
                cache.Cachesim.Config.name;
            Dvf_util.Table.print
              (Core.Experiments.fig6_table
                 (Core.Experiments.fig6 ~jobs ~telemetry ~cache ())))
          configs)
  in
  Cmd.v
    (Cmd.info "fig6"
       ~doc:
         "CG vs PCG vulnerability over problem size (one sweep per cache \
          level with --levels > 1)")
    Term.(const run $ Cli_common.jobs $ Cli_common.metrics $ Cli_common.levels)

let fig7_cmd =
  simple_cmd "fig7" "DVF vs ECC performance degradation" (fun () ->
      let rows = Core.Experiments.fig7 () in
      Dvf_util.Table.print (Core.Experiments.fig7_table rows);
      let s, c = Core.Experiments.fig7_optimum rows in
      Printf.printf "optimum degradation: SECDED %.0f%%, chipkill %.0f%%\n"
        (100.0 *. s) (100.0 *. c))

(* --- parse --- *)

let parse_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Model file to check.")
  in
  let run path =
    handle_aspen_errors (fun () ->
        let ast = Aspen.Parser.parse_file (read_file path) in
        print_string (Aspen.Pretty.to_string ast);
        (* Also compile every declaration so semantic errors surface. *)
        ignore (Aspen.Compile.machines ast);
        ignore (Aspen.Compile.apps ast);
        Printf.eprintf "%s: OK (%d declarations)\n" path (List.length ast))
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Syntax- and semantics-check a model file, echo it")
    Term.(const run $ path)

let models_cmd =
  simple_cmd "models" "List the builtin models" (fun () ->
      List.iter
        (fun (name, _) -> Printf.printf "%s\n" name)
        Aspen.Builtin_models.sources)

(* --- component / protect: the library's extensions --- *)

let components_cmd =
  let run workloads =
    let cache = Cachesim.Config.profiling_4mb in
    List.iter
      (fun workload ->
        let instance = Core.Workloads.profiling_instance workload in
        let time =
          Core.Perf.app_time Core.Perf.default_machine ~cache
            ~flops:instance.Core.Workload.flops instance.Core.Workload.spec
        in
        Dvf_util.Table.print
          (Core.Component.to_table
             (Core.Component.both ~cache ~time instance.Core.Workload.spec)))
      workloads
  in
  Cmd.v
    (Cmd.info "components"
       ~doc:"Memory vs cache-component DVF per structure")
    Term.(const run $ Cli_common.workload_pos_args)

let protect_cmd =
  let target =
    let doc = "Residual vulnerability target as a fraction (0,1]." in
    Arg.(value & opt float 0.10 & info [ "t"; "target" ] ~docv:"FRACTION" ~doc)
  in
  let run target workloads =
    let cache = Cachesim.Config.profiling_4mb in
    List.iter
      (fun workload ->
        let instance = Core.Workloads.profiling_instance workload in
        let time =
          Core.Perf.app_time Core.Perf.default_machine ~cache
            ~flops:instance.Core.Workload.flops instance.Core.Workload.spec
        in
        let app =
          Core.Dvf.of_spec ~cache ~fit:(Core.Ecc.fit Core.Ecc.No_ecc) ~time
            instance.Core.Workload.spec
        in
        Printf.printf "=== %s ===\n" instance.Core.Workload.label;
        Dvf_util.Table.print
          (Core.Selective.to_table
             (Core.Selective.coverage_curve ~scheme:Core.Ecc.Chipkill app));
        match
          Core.Selective.structures_for_target ~scheme:Core.Ecc.Chipkill
            ~target_fraction:target app
        with
        | [] -> Printf.printf "already within target\n"
        | names ->
            Printf.printf "protect {%s} to keep <= %.0f%% of the DVF\n"
              (String.concat ", " names) (100.0 *. target)
        | exception Invalid_argument m -> Printf.printf "%s\n" m)
      workloads
  in
  Cmd.v
    (Cmd.info "protect"
       ~doc:"Selective-protection coverage curves (chipkill on top-k structures)")
    Term.(const run $ target $ Cli_common.workload_pos_args)

(* --- inject: fault-injection campaigns vs the analytical DVF --- *)

let inject_cmd =
  let run (c : Cli_common.campaign) workloads =
    List.iter
      (fun (w : Core.Workload.t) ->
        if Option.is_none w.Core.Workload.injector then
          Printf.eprintf "note: %s has no fault injector; skipping\n"
            w.Core.Workload.name)
      workloads;
    Cli_common.with_metrics c.Cli_common.c_metrics (fun telemetry ->
        let results =
          Core.Injection.run_all ~seed:c.Cli_common.c_seed
            ?trials:c.Cli_common.c_trials ~jobs:c.Cli_common.c_jobs ~telemetry
            workloads
        in
        if results = [] then begin
          Printf.eprintf
            "error: none of the selected workloads has an injector\n";
          exit 1
        end;
        List.iter
          (fun r -> Dvf_util.Table.print (Core.Injection.to_table r))
          results;
        let corr = Core.Injection.correlate results in
        Dvf_util.Table.print (Core.Injection.correlation_table corr);
        Format.printf "%a" Core.Injection.pp_spearman corr;
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc
              (Dvf_util.Table.to_csv (Core.Injection.correlation_table corr));
            close_out oc;
            Printf.printf "wrote %s\n" path)
          c.Cli_common.c_csv)
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Statistical fault injection per data structure (Wilson confidence \
          intervals on SDC rates), compared against the analytical DVF by \
          Spearman rank correlation")
    Term.(
      const run $ Cli_common.campaign_term $ Cli_common.workload_pos_args)

(* --- chaos: component-kill campaigns over service graphs --- *)

let chaos_cmd =
  let workloads =
    (* Unlike the other subcommands, the default set resolves inside
       [run]: the service workloads are registered on demand, so a
       module-initialization-time [Workloads.all ()] would miss them. *)
    let doc =
      "Workloads by registry name (default: the built-in service-graph \
       workloads)."
    in
    Arg.(value & pos_all Cli_common.workload_conv [] & info [] ~docv:"WORKLOAD" ~doc)
  in
  let run (c : Cli_common.campaign) kill_fraction workloads =
    let kill_fraction = Cli_common.check_kill_fraction kill_fraction in
    let workloads =
      match workloads with
      | [] ->
          Core.Service_workloads.ensure_registered ();
          List.filter
            (fun (w : Core.Workload.t) ->
              Option.is_some w.Core.Workload.topology)
            (Core.Workloads.all ())
      | ws -> ws
    in
    List.iter
      (fun (w : Core.Workload.t) ->
        if Option.is_none w.Core.Workload.topology then
          Printf.eprintf "note: %s has no service-graph topology; skipping\n"
            w.Core.Workload.name)
      workloads;
    Cli_common.with_metrics c.Cli_common.c_metrics (fun telemetry ->
        let reports =
          Core.Chaos.run_all ~seed:c.Cli_common.c_seed
            ?trials:c.Cli_common.c_trials ~jobs:c.Cli_common.c_jobs ~telemetry
            ~kill_fraction workloads
        in
        if reports = [] then begin
          Printf.eprintf
            "error: none of the selected workloads has a service-graph \
             topology\n";
          exit 1
        end;
        List.iter
          (fun r ->
            Dvf_util.Table.print (Core.Chaos.to_table r);
            Format.printf "%a" Core.Chaos.pp_summary r)
          reports;
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc (Core.Chaos.to_csv reports);
            close_out oc;
            Printf.printf "wrote %s\n" path)
          c.Cli_common.c_csv)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos campaigns over service-graph workloads: kill a random \
          component subset per trial, report per-endpoint availability \
          (Wilson confidence intervals) and the mix-weighted request loss, \
          and rank availability against the analytical DVF by Spearman \
          correlation.  Runs on the same fault-model campaign engine as \
          $(b,dvf inject)")
    Term.(
      const run $ Cli_common.campaign_term $ Cli_common.kill_fraction
      $ workloads)

(* --- windows: vulnerability vs. time --- *)

let windows_cmd =
  let run (c : Cli_common.campaign) bins tape_store workloads =
    let bins = Cli_common.check_bins bins in
    List.iter
      (fun (w : Core.Workload.t) ->
        if Option.is_none w.Core.Workload.injector then
          Printf.eprintf "note: %s has no fault injector; skipping\n"
            w.Core.Workload.name)
      workloads;
    Cli_common.with_metrics c.Cli_common.c_metrics (fun telemetry ->
        let store = Cli_common.open_tape_store ~telemetry tape_store in
        let report =
          Core.Windows.run ~jobs:c.Cli_common.c_jobs ~telemetry ?store
            ~seed:c.Cli_common.c_seed
            ?trials:c.Cli_common.c_trials ~bins ~workloads ()
        in
        if report.Core.Windows.curves = [] then begin
          Printf.eprintf
            "error: none of the selected workloads has an injector\n";
          exit 1
        end;
        Dvf_util.Table.print (Core.Windows.to_table report);
        Dvf_util.Table.print (Core.Windows.curve_table report);
        Format.printf "%a" Core.Windows.pp_correlations report;
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc (Core.Windows.to_csv report);
            close_out oc;
            Printf.printf "wrote %s\n" path)
          c.Cli_common.c_csv)
  in
  Cmd.v
    (Cmd.info "windows"
       ~doc:
         "Vulnerability vs. time: windowed residency from a timed replay \
          against flip-time-binned SDC rates from fault injection, with \
          Spearman rank correlations per structure and between the \
          time-weighted DVF and the overall SDC rate")
    Term.(
      const run $ Cli_common.campaign_term $ Cli_common.bins
      $ Cli_common.tape_store $ Cli_common.workload_pos_args)

(* --- serve / query: long-lived query daemon over line JSON ---

   [Core.Serve] is computation only; this section owns the transport:
   a line-framed reader over a raw fd with select-based batching (all
   request lines already buffered are dispatched to the pool as one
   batch), writing one compact JSON response line per request. *)

module Json = Dvf_util.Json

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

type line_reader = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  partial : Buffer.t; (* current unterminated line *)
  queue : string Queue.t; (* complete lines, oldest first *)
  mutable eof : bool;
}

let make_reader fd =
  {
    fd;
    rbuf = Bytes.create 65536;
    partial = Buffer.create 4096;
    queue = Queue.create ();
    eof = false;
  }

let reader_readable r =
  match Unix.select [ r.fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false

(* One read(2); splits complete lines into the queue.  At EOF a
   non-empty unterminated tail still counts as a final line. *)
let refill r =
  if not r.eof then begin
    let n = Unix.read r.fd r.rbuf 0 (Bytes.length r.rbuf) in
    if n = 0 then begin
      r.eof <- true;
      if Buffer.length r.partial > 0 then begin
        Queue.add (Buffer.contents r.partial) r.queue;
        Buffer.clear r.partial
      end
    end
    else
      for i = 0 to n - 1 do
        match Bytes.get r.rbuf i with
        | '\n' ->
            Queue.add (Buffer.contents r.partial) r.queue;
            Buffer.clear r.partial
        | c -> Buffer.add_char r.partial c
      done
  end

(* Block for at least one line, then opportunistically drain whatever
   else has already arrived (up to [max] lines) so concurrent clients'
   requests dispatch to the pool as one batch. *)
let next_batch r ~max =
  while Queue.is_empty r.queue && not r.eof do
    refill r
  done;
  while Queue.length r.queue < max && (not r.eof) && reader_readable r do
    refill r
  done;
  let batch = ref [] in
  while List.length !batch < max && not (Queue.is_empty r.queue) do
    batch := Queue.pop r.queue :: !batch
  done;
  List.rev !batch

let serve_connection srv ~in_fd ~out_fd =
  let r = make_reader in_fd in
  let rec loop () =
    match next_batch r ~max:64 with
    | [] -> () (* EOF *)
    | lines ->
        List.iter
          (fun resp -> write_all out_fd (resp ^ "\n"))
          (Core.Serve.handle_batch srv lines);
        loop ()
  in
  loop ()

let serve_socket srv path =
  if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let finally () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  Printf.eprintf "dvf serve: listening on %s\n%!" path;
  let rec accept_loop () =
    let conn, _ = Unix.accept sock in
    (try serve_connection srv ~in_fd:conn ~out_fd:conn
     with Unix.Unix_error _ -> ());
    (try Unix.close conn with Unix.Unix_error _ -> ());
    accept_loop ()
  in
  accept_loop ()

let serve_cmd =
  let socket =
    let doc =
      "Listen on a Unix-domain socket at $(docv) (clients connect one at \
       a time) instead of answering requests on stdin/stdout."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let run jobs metrics tape_store socket workloads =
    let jobs = Cli_common.check_jobs jobs in
    (* A signal flips the loop into a normal return so the pool shuts
       down and --metrics still gets written. *)
    let on_signal = Sys.Signal_handle (fun _ -> raise Exit) in
    Sys.set_signal Sys.sigint on_signal;
    Sys.set_signal Sys.sigterm on_signal;
    Cli_common.with_metrics metrics (fun telemetry ->
        let store = Cli_common.open_tape_store ~telemetry tape_store in
        let srv = Core.Serve.create ~telemetry ?store ~jobs ~workloads () in
        Fun.protect ~finally:(fun () -> Core.Serve.shutdown srv) @@ fun () ->
        Core.Serve.warm srv;
        Printf.eprintf "dvf serve: %d workloads warm, ready\n%!"
          (Core.Serve.warm_count srv);
        try
          match socket with
          | None -> serve_connection srv ~in_fd:Unix.stdin ~out_fd:Unix.stdout
          | Some path -> serve_socket srv path
        with Exit -> ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived query daemon: warm every workload's trace tape once \
          (optionally from a persistent --tape-store), then answer \
          verify/levels/timed/dvf/sweep requests as line JSON on \
          stdin/stdout or a Unix socket, batching concurrent requests \
          onto the domain pool")
    Term.(
      const run $ Cli_common.jobs $ Cli_common.metrics $ Cli_common.tape_store
      $ socket $ Cli_common.workload_pos_args)

(* --- query: one-shot client --- *)

let query_cmd =
  let socket =
    let doc =
      "Send the request to a running $(b,dvf serve --socket) daemon at \
       $(docv) instead of answering in-process."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let op =
    let doc =
      "Operation: verify, levels, timed, dvf, sweep, chaos, workloads, \
       stats or ping."
    in
    Arg.(value & opt string "verify" & info [ "op" ] ~docv:"OP" ~doc)
  in
  let workload =
    let doc = "Restrict to one workload (required for $(b,--op sweep))." in
    Arg.(
      value
      & pos 0 (some Cli_common.workload_conv) None
      & info [] ~docv:"WORKLOAD" ~doc)
  in
  let levels =
    let doc =
      "Hierarchy depth for $(b,--op levels) (server default 2) or \
       $(b,--op timed) (server default 1)."
    in
    Arg.(value & opt (some int) None & info [ "levels" ] ~docv:"N" ~doc)
  in
  let bins =
    let doc = "Time windows for $(b,--op timed) (server default)." in
    Arg.(value & opt (some int) None & info [ "bins" ] ~docv:"N" ~doc)
  in
  let capacities =
    let doc = "Comma-separated capacities in bytes for $(b,--op sweep)." in
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "capacities" ] ~docv:"BYTES,.." ~doc)
  in
  let no_simulate =
    let doc = "Skip the trace-driven totals in $(b,--op sweep)." in
    Arg.(value & flag & info [ "no-simulate" ] ~doc)
  in
  let trials =
    let doc = "Trials per endpoint for $(b,--op chaos) (server default)." in
    Arg.(value & opt (some int) None & info [ "trials" ] ~docv:"N" ~doc)
  in
  let q_kill_fraction =
    let doc =
      "Components killed per trial for $(b,--op chaos), as a fraction in \
       [0, 1] (server default)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "kill-fraction" ] ~docv:"F" ~doc)
  in
  let raw =
    let doc = "Print the raw JSON response line instead of a table." in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  let request =
    let doc =
      "Send this literal JSON request (one line) instead of building one \
       from the other options."
    in
    Arg.(value & opt (some string) None & info [ "request" ] ~docv:"JSON" ~doc)
  in
  let build_request ~op ~workload ~levels ~bins ~capacities ~no_simulate
      ~trials ~kill_fraction =
    Json.to_string ~indent:false
      (Json.Obj
         ([ ("id", Json.Int 1); ("op", Json.Str op) ]
         @ (match workload with
           | Some (w : Core.Workload.t) ->
               [ ("workload", Json.Str w.Core.Workload.name) ]
           | None -> [])
         @ (match levels with
           | Some l when op = "levels" || op = "timed" ->
               [ ("levels", Json.Int l) ]
           | _ -> [])
         @ (match bins with
           | Some b when op = "timed" -> [ ("bins", Json.Int b) ]
           | _ -> [])
         @ (match capacities with
           | Some caps when op = "sweep" ->
               [ ("capacities", Json.List (List.map (fun c -> Json.Int c) caps)) ]
           | _ -> [])
         @ (match trials with
           | Some t when op = "chaos" -> [ ("trials", Json.Int t) ]
           | _ -> [])
         @ (match kill_fraction with
           | Some f when op = "chaos" -> [ ("kill_fraction", Json.Float f) ]
           | _ -> [])
         @
         if no_simulate && op = "sweep" then
           [ ("simulate", Json.Bool false) ]
         else []))
  in
  let query_socket path line =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () ->
        try Unix.close sock with Unix.Unix_error _ -> ())
    @@ fun () ->
    (try Unix.connect sock (Unix.ADDR_UNIX path)
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "error: cannot connect to %s: %s\n" path
         (Unix.error_message e);
       exit 1);
    write_all sock (line ^ "\n");
    let ic = Unix.in_channel_of_descr sock in
    match input_line ic with
    | resp -> resp
    | exception End_of_file ->
        Printf.eprintf "error: server closed the connection\n";
        exit 1
  in
  let render ~raw ~op ~label response =
    if raw then print_endline response
    else
      match Json.of_string response with
      | Error msg ->
          Printf.eprintf "error: bad response: %s\n" msg;
          exit 1
      | Ok resp -> (
          match (Json.member "ok" resp, Json.member "result" resp) with
          | Some (Json.Bool true), Some result -> (
              try
                match op with
                | "verify" ->
                    Dvf_util.Table.print
                      (Core.Verify.to_table
                         (Core.Serve.verify_rows_of_result result))
                | "levels" ->
                    Dvf_util.Table.print
                      (Core.Verify.to_level_table
                         (Core.Serve.level_rows_of_result result))
                | "timed" ->
                    Dvf_util.Table.print
                      (Core.Verify.to_time_table
                         (Core.Serve.timed_rows_of_result result))
                | "dvf" ->
                    Dvf_util.Table.print
                      (Core.Profile.to_table
                         (Core.Serve.profile_rows_of_result result))
                | "sweep" ->
                    Dvf_util.Table.print
                      (Core.Experiments.cache_sweep_table ~label
                         (Core.Serve.sweep_rows_of_result result))
                | "chaos" ->
                    let report = Core.Serve.chaos_report_of_result result in
                    Dvf_util.Table.print (Core.Chaos.to_table report);
                    Format.printf "%a" Core.Chaos.pp_summary report
                | _ -> print_endline (Json.to_string result)
              with Failure msg ->
                Printf.eprintf "error: %s\n" msg;
                exit 1)
          | Some (Json.Bool false), _ ->
              let msg =
                match Json.member "error" resp with
                | Some (Json.Str m) -> m
                | _ -> "unknown server error"
              in
              Printf.eprintf "error: %s\n" msg;
              exit 1
          | _ ->
              Printf.eprintf "error: malformed response envelope\n";
              exit 1)
  in
  let run jobs tape_store socket op workload levels bins capacities
      no_simulate trials kill_fraction raw request =
    let jobs = Cli_common.check_jobs jobs in
    let line =
      match request with
      | Some r -> r
      | None ->
          build_request ~op ~workload ~levels ~bins ~capacities ~no_simulate
            ~trials ~kill_fraction
    in
    (* Render according to the op actually sent, so --request still gets
       a table when it names a tabular op. *)
    let op =
      match request with
      | None -> op
      | Some r -> (
          match Result.map (Json.member "op") (Json.of_string r) with
          | Ok (Some (Json.Str o)) -> o
          | _ -> op)
    in
    let label =
      match workload with
      | Some (w : Core.Workload.t) -> w.Core.Workload.name
      | None -> "sweep"
    in
    let response =
      match socket with
      | Some path -> query_socket path line
      | None -> (
          (* In-process: spin up a serving context, answer the one
             request (capturing only what it needs — no full warm-up),
             and shut down. *)
          let store =
            Cli_common.open_tape_store ~telemetry:Dvf_util.Telemetry.null
              tape_store
          in
          let srv = Core.Serve.create ?store ~jobs () in
          Fun.protect ~finally:(fun () -> Core.Serve.shutdown srv)
          @@ fun () ->
          match Core.Serve.handle_line srv line with
          | Some resp -> resp
          | None ->
              Printf.eprintf "error: blank request\n";
              exit 1)
    in
    render ~raw ~op ~label response
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "One-shot client for the dvf-query protocol: send one request to \
          a running serve daemon (--socket) or answer it in-process, and \
          render the rows as the matching CLI table (or --raw JSON)")
    Term.(
      const run $ Cli_common.jobs $ Cli_common.tape_store $ socket $ op
      $ workload $ levels $ bins $ capacities $ no_simulate $ trials
      $ q_kill_fraction $ raw $ request)

(* --- --model: any Aspen file through the full pipeline --- *)

let run_model path overrides jobs telemetry =
  handle_aspen_errors (fun () ->
      let ast = Aspen.Parser.parse_file (read_file path) in
      let apps = Aspen.Compile.apps ~overrides ast in
      if apps = [] then begin
        Printf.eprintf "error: %s declares no apps\n" path;
        exit 1
      end;
      let machines = Aspen.Compile.machines ast in
      (* Analytical DVF report: against every machine declared in the
         file, or the default profiling machine when it declares none. *)
      (match machines with
      | [] ->
          let cache = Cachesim.Config.profiling_4mb in
          Printf.printf "machine (default): %s, FIT=%g\n\n"
            (Format.asprintf "%a" Cachesim.Config.pp cache)
            (Core.Ecc.fit Core.Ecc.No_ecc);
          List.iter
            (fun (app : Aspen.Compile.app) ->
              let time =
                Core.Perf.app_time Core.Perf.default_machine ~cache
                  ~flops:app.Aspen.Compile.flops app.Aspen.Compile.spec
              in
              let d =
                Core.Dvf.of_spec ~cache
                  ~fit:(Core.Ecc.fit Core.Ecc.No_ecc)
                  ~time app.Aspen.Compile.spec
              in
              Format.printf "%a@.@." Core.Dvf.pp_app d)
            apps
      | machines ->
          List.iter
            (fun (machine : Aspen.Compile.machine) ->
              Printf.printf "machine %s: %s, FIT=%g\n\n"
                machine.Aspen.Compile.machine_name
                (Format.asprintf "%a" Cachesim.Config.pp
                   machine.Aspen.Compile.cache)
                machine.Aspen.Compile.fit;
              List.iter
                (fun app ->
                  let d = Aspen.Compile.dvf machine app in
                  Format.printf "%a@.@." Core.Dvf.pp_app d)
                apps)
            machines);
      (* Fig. 4-style trace verification: replay the declared patterns,
         simulate, compare against the analytical N_ha. *)
      let workloads =
        List.map
          (fun app ->
            match Aspen.Model_workload.register ~source:path app with
            | w -> w
            | exception Invalid_argument _ ->
                (* Name collision (re-run, or a model named like a
                   builtin): use the workload without registering. *)
                Aspen.Model_workload.of_app ~source:path app)
          apps
      in
      let rows =
        Core.Verify.run_all
          ~jobs:(Cli_common.check_jobs jobs)
          ~telemetry ~workloads ()
      in
      Dvf_util.Table.print (Core.Verify.to_table rows))

let default_term =
  let model =
    let doc =
      "Run the full DVF pipeline on an Aspen model file: compile every \
       app, print the analytical DVF report, then verify the pattern \
       models against trace-driven cache simulation."
    in
    Arg.(
      value
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE.aspen" ~doc)
  in
  let run model overrides jobs metrics =
    match model with
    | Some path ->
        Cli_common.with_metrics metrics (fun telemetry ->
            run_model path overrides jobs telemetry);
        `Ok ()
    | None -> `Help (`Pager, None)
  in
  Term.(
    ret
      (const run $ model $ Cli_common.param_overrides $ Cli_common.jobs
      $ Cli_common.metrics))

(* --- tape: on-disk trace tape inspection --- *)

let tape_cmd =
  let info_cmd =
    let file =
      let doc = "The .dvftape file to inspect." in
      Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
    in
    let json =
      let doc = "Print one JSON line instead of the table." in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let run file json =
      match Core.Serve.tape_info_of_file file with
      | Error e ->
          Printf.eprintf "error: %s: %s\n" file
            (Memtrace.Tape_io.error_to_string e);
          exit 1
      | Ok ti ->
          if json then
            print_endline
              (Json.to_string ~indent:false (Core.Serve.tape_info_to_json ti))
          else Dvf_util.Table.print (Core.Serve.tape_info_table ti)
    in
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Print a tape file's header, provenance and partition-index \
            summary (byte-stable; $(b,--json) for the machine-readable \
            line)")
      Term.(const run $ file $ json)
  in
  Cmd.group
    (Cmd.info "tape" ~doc:"Inspect persistent .dvftape trace files")
    [ info_cmd ]

let main_cmd =
  let doc = "Data Vulnerability Factor modeling (SC'14 reproduction)" in
  Cmd.group ~default:default_term
    (Cmd.info "dvf" ~version:"1.0.0" ~doc)
    [
      profile_cmd; verify_cmd; tables_cmd; fig5_cmd; fig6_cmd; fig7_cmd;
      parse_cmd; models_cmd; components_cmd; protect_cmd; inject_cmd;
      chaos_cmd; windows_cmd; serve_cmd; query_cmd; tape_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
