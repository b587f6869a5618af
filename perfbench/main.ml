(* The DVF benchmark.  One process runs one workload for a fixed time and
   prints one JSON result line; perfbench/README.md describes the
   workloads and metrics, perfbench/run.py builds and runs this program.

   End-to-end passes call the library exactly as a user would, with
   telemetry off (the default, [Telemetry.null]).  A traced run
   ([--trace 1]) repeats the same work as explicit calls into each
   layer's public functions, each under a span of the benchmark's own
   ([Spans]), and derives the per-layer metrics from those spans and
   from the calls' return values. *)

module Json = Dvf_util.Json
module Table = Dvf_util.Table
module Pool = Dvf_util.Parallel.Pool
module Config = Cachesim.Config
module Cache = Cachesim.Cache
module Stats = Cachesim.Stats
module Tape = Memtrace.Tape
module Store = Memtrace.Tape_store
module Region = Memtrace.Region
module Ap = Access_patterns
module Verify = Core.Verify
module Workload = Core.Workload
module Workloads = Core.Workloads
module Experiments = Core.Experiments
module Serve = Core.Serve

(* The reference host has two cores; every parallel call uses both. *)
let jobs = 2
let six = Workloads.[ vm; cg; nb; mg; ft; mc ]
let setup_reps = 3
let levels = 2

(* ---- arguments ---- *)

let workload_name = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let work_dir = ref ".bench_build/perfbench-work"
let golden_path = ref "test/golden/verify_default.txt"
let spans_path = ref ""

let specs =
  [
    ("--workload", Arg.Set_string workload_name,
     "NAME verify_cold | verify_warm | sweep | serve");
    ("--seed", Arg.Set_int seed, "N serve request order and chaos seed");
    ("--seconds", Arg.Set_float seconds, "S how long to measure");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced run (1)");
    ("--work-dir", Arg.Set_string work_dir, "DIR scratch space for tape stores");
    ("--golden", Arg.Set_string golden_path, "FILE expected verify table");
    ("--spans", Arg.Set_string spans_path, "FILE where a traced run writes spans");
  ]

(* ---- small helpers ---- *)

let now = Spans.now
let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let stores = ref 0

let fresh_store name =
  incr stores;
  let dir = Filename.concat !work_dir (Printf.sprintf "%s-%d" name !stores) in
  rm_rf dir;
  Store.create ~dir ()

let drop_store s = rm_rf (Store.dir s)

(* Harrell-Davis estimate of the [q]-quantile: a mean of all order
   statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density, which is
   much steadier than one or two order statistics when a run has only a
   handful of passes.  The weights are integrated by the midpoint rule and
   normalised. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n <= 1 then (if n = 0 then nan else a.(0))
  else begin
    let alpha = q *. float_of_int (n + 1) and beta = (1.0 -. q) *. float_of_int (n + 1) in
    let density x = exp (((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x))) in
    let steps = 64 in
    let h = 1.0 /. float_of_int (n * steps) in
    let weights =
      Array.init n (fun i ->
          let w = ref 0.0 in
          for k = 0 to steps - 1 do
            w := !w +. density ((float_of_int ((i * steps) + k) +. 0.5) *. h)
          done;
          !w)
    in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let acc = ref 0.0 in
    Array.iteri (fun i w -> acc := !acc +. (w *. a.(i))) weights;
    !acc /. total
  end

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let fint = float_of_int

let file_bytes path = fint (Unix.stat path).Unix.st_size

(* ---- operations and their checks ---- *)

let attempted = ref 0
let failed = ref 0

let fail what msg =
  incr failed;
  Printf.eprintf "perfbench: %s failed: %s\n%!" what msg

(* One operation: a call into the library, timed, then checked.  An
   exception or a failed check counts the operation as failed and the run
   goes on; the check is not part of the timing. *)
let op what f check =
  incr attempted;
  let t0 = now () in
  match f () with
  | exception e ->
      let dt = now () -. t0 in
      fail what (Printexc.to_string e);
      (None, dt)
  | v ->
      let dt = now () -. t0 in
      (match check v with
      | Ok () -> ()
      | Error msg -> fail what msg
      | exception e -> fail what ("check raised " ^ Printexc.to_string e));
      (Some v, dt)

let golden = lazy (read_file !golden_path)

let check_golden rows =
  if Table.render (Verify.to_table rows) ^ "\n" = Lazy.force golden then Ok ()
  else Error "the verify table differs from the golden table"

let check_equal what reference v =
  if v = reference then Ok ()
  else Error (what ^ " differ from the jobs:1 reference")

(* The largest aggregate CGPMAC error over (workload, cache), in %. *)
let model_error_pct rows =
  100.0
  *. List.fold_left
       (fun acc (w : Workload.t) ->
         List.fold_left
           (fun acc cache ->
             Float.max acc (Verify.workload_error ~rows w.Workload.name cache))
           acc Config.verification_set)
       0.0 six

let sweep_error_pct rows =
  100.0
  *. List.fold_left
       (fun acc (r : Experiments.sweep_row) ->
         match r.Experiments.sim_n_ha with
         | Some sim when sim > 0.0 ->
             Float.max acc (Float.abs (r.Experiments.n_ha -. sim) /. sim)
         | _ -> acc)
       0.0 rows

let store_events store instances =
  sum
    (List.map
       (fun inst ->
         match Store.find store (Verify.store_key inst) with
         | Some (_, tape) -> fint (Tape.length tape)
         | None -> failwith "perfbench: a set-up tape is missing from its store")
       instances)

(* ---- layer calls under spans (traced runs) ---- *)

let span = Spans.record

let traced_instance mode (w : Workload.t) =
  span "instance" (fun () -> w.Workload.instance mode)

let traced_capture inst =
  span "capture"
    ~counts:(fun (cap : Verify.capture) ->
      [ ("events", fint (Tape.length cap.Verify.tape));
        ("allocated_bytes", fint (Tape.allocated_bytes cap.Verify.tape)) ])
    (fun () -> Verify.capture inst)

let traced_save store (cap : Verify.capture) =
  let key = Verify.store_key cap.Verify.instance in
  span "tape_io.save"
    ~counts:(fun () -> [ ("bytes", file_bytes (Store.path store key)) ])
    (fun () ->
      Store.save store key ~registry:cap.Verify.registry ~tape:cap.Verify.tape)

let traced_load store (inst : Workload.instance) =
  let key = Verify.store_key inst in
  match
    span "tape_io.load"
      ~counts:(fun found -> [ ("hits", if found = None then 0.0 else 1.0) ])
      (fun () -> Store.find store key)
  with
  | None -> failwith ("store miss for " ^ inst.Workload.workload)
  | Some (registry, tape) ->
      span "tape.materialize"
        ~counts:(fun () ->
          [ ("bytes", fint (Tape.length tape * Tape.bytes_per_event)) ])
        (fun () -> Tape.materialize tape);
      { Verify.instance = inst; registry; tape }

let events_of (cap : Verify.capture) = fint (Tape.length cap.Verify.tape)

(* One tape into one cache (the Replay unit of work), then the CGPMAC
   model through the library's own App_spec.main_memory_accesses.  The
   rows are assembled as Verify.run_all assembles them; the golden check
   guards that. *)
let traced_rows (cap : Verify.capture) cache =
  let sim = Cache.create cache in
  span "cache.fused"
    ~counts:(fun () -> [ ("events", events_of cap) ])
    (fun () ->
      Tape.replay_fused cap.Verify.tape [| sim |];
      Cache.flush sim);
  let snapshot = Stats.snapshot (Cache.stats sim) in
  let modeled =
    span "model" (fun () ->
        Ap.App_spec.main_memory_accesses ~cache cap.Verify.instance.Workload.spec)
  in
  List.map
    (fun (structure, modeled) ->
      let region = Region.lookup cap.Verify.registry structure in
      { Verify.workload = cap.Verify.instance.Workload.workload; cache;
        structure;
        simulated =
          fint (Stats.Snapshot.owner_main_memory snapshot region.Region.id);
        modeled })
    modeled

(* The Template stack-distance model on its own: Pattern.main_memory_accesses
   on every structure whose pattern is a template, one span per
   (workload, cache) pair of a verify pass.  Templates reached only through
   a composition are not part of it. *)
let traced_templates (instances : Workload.instance list) =
  List.iter
    (fun (inst : Workload.instance) ->
      List.iter
        (fun cache ->
          span "model.template" (fun () ->
              List.iter
                (fun (s : Ap.App_spec.structure) ->
                  match s.Ap.App_spec.pattern with
                  | Some (Ap.Pattern.Templated _ as p) ->
                      ignore (Ap.Pattern.main_memory_accesses ~cache p)
                  | _ -> ())
                inst.Workload.spec.Ap.App_spec.structures))
        Config.verification_set)
    instances

(* Hierarchy and residency walks are the library's own per-capture units
   of work, each over every verification base geometry. *)
let bases = fint (List.length Config.verification_set)

let level_sum level f rows =
  sum
    (List.filter_map
       (fun (r : Verify.level_row) -> if r.Verify.level = level then Some (f r) else None)
       rows)

let l2_accesses = level_sum 2 (fun r -> r.Verify.accesses)

let check_l2 rows =
  if l2_accesses rows = level_sum 1 (fun r -> r.Verify.misses +. r.Verify.l_writebacks) rows
  then Ok ()
  else Error "L2 accesses differ from L1 misses plus L1 writebacks"

let traced_levels (cap : Verify.capture) =
  span "hierarchy"
    ~counts:(fun rows ->
      [ ("events", bases *. events_of cap); ("l2_accesses", l2_accesses rows) ])
    (fun () -> Verify.capture_level_rows ~levels cap)

let traced_timed (cap : Verify.capture) =
  span "residency"
    ~counts:(fun _ -> [ ("events", bases *. events_of cap) ])
    (fun () -> Verify.capture_time_rows ~levels cap)

(* [Pool.map_list] with the caller's open span as every task's parent. *)
let pool_map pool f xs =
  let parent = Spans.current_id () in
  Pool.map_list pool (fun x -> Spans.within parent (fun () -> f x)) xs

let with_pool f = Dvf_util.Parallel.with_pool ~jobs f

let pairs caps =
  List.concat_map
    (fun cap -> List.map (fun c -> (cap, c)) Config.verification_set)
    caps

(* Verify.run_all's Replay fan-out: instances, then tapes, then one job
   per (tape, cache). *)
let traced_verify ~tapes =
  with_pool (fun pool ->
      let instances = pool_map pool (traced_instance `Verification) six in
      let caps = pool_map pool tapes instances in
      List.concat (pool_map pool (fun (cap, c) -> traced_rows cap c) (pairs caps)))

(* One tape into every sweep geometry: the sharded fused walk of
   Experiments.cache_sweep, one shard per domain. *)
let traced_sweep_walk (cap : Verify.capture) caches =
  span "sweep.walk"
    ~counts:(fun _ -> [ ("events", events_of cap *. fint (List.length caches)) ])
    (fun () ->
      let parent = Spans.current_id () in
      let per_shard =
        Dvf_util.Parallel.map_list ~jobs
          (fun shard ->
            Spans.within parent (fun () ->
                let sims = Array.of_list (List.map Cache.create caches) in
                Tape.replay_fused_sharded cap.Verify.tape sims ~shards:jobs ~shard;
                Array.iter Cache.flush sims;
                Array.map Cache.stats sims))
          (List.init jobs Fun.id)
      in
      List.mapi
        (fun i _ ->
          fint
            (Stats.Snapshot.total_main_memory
               (Stats.snapshot (Stats.sum (List.map (fun s -> s.(i)) per_shard)))))
        caches)

let traced_sweep ~store inst =
  let cap = traced_load store inst in
  let model =
    span "sweep.model" (fun () ->
        Experiments.cache_sweep ~jobs ~simulate:false inst)
  in
  let totals =
    traced_sweep_walk cap
      (List.map (fun (r : Experiments.sweep_row) -> r.Experiments.sweep_cache) model)
  in
  List.map2
    (fun (r : Experiments.sweep_row) t -> { r with Experiments.sim_n_ha = Some t })
    model totals

(* ---- workloads ---- *)

type pass = {
  latencies : float list;  (* one per operation, seconds *)
  events : float;  (* reference events replayed: tape events x geometries *)
  model_error : float list;  (* % per checked result *)
}

type workload = {
  setup : unit -> unit;  (* repeated; the last set-up is the one used *)
  prepare : unit -> unit;  (* one-off references for the output checks *)
  pass : unit -> pass;  (* end-to-end: the library as users call it *)
  traced_pass : unit -> pass;  (* the same work, layer by layer, under spans *)
  probe_store : unit -> Store.t option;  (* the six verification tapes *)
  teardown : unit -> unit;
  min_ops : int;  (* operations a measurement needs at least *)
}

let verification_instances = lazy (List.map Workloads.verification_instance six)

let replace_store cell name =
  Option.iter drop_store !cell;
  let s = fresh_store name in
  cell := Some s;
  s

let the cell = Option.get !cell

let verify_cold () =
  let last = ref None and events = ref 0.0 in
  let run_pass ~traced =
    let store = fresh_store "cold" in
    let call () =
      if traced then
        span "pass" (fun () ->
            traced_verify ~tapes:(fun inst ->
                let cap = traced_capture inst in
                traced_save store cap;
                cap))
      else Verify.run_all ~jobs ~store ~workloads:six ()
    in
    let rows, dt = op "verify_cold Verify.run_all" call check_golden in
    drop_store store;
    { latencies = [ dt ]; events = 2.0 *. !events;
      model_error = Option.to_list (Option.map model_error_pct rows) }
  in
  {
    setup =
      (fun () ->
        let store = replace_store last "cold-setup" in
        ignore (Verify.run_all ~jobs ~store ~workloads:six ()));
    prepare =
      (fun () -> events := store_events (the last) (Lazy.force verification_instances));
    pass = (fun () -> run_pass ~traced:false);
    traced_pass = (fun () -> run_pass ~traced:true);
    probe_store = (fun () -> !last);
    teardown = ignore;
    min_ops = 0;
  }

let verify_warm () =
  let store = ref None and events = ref 0.0 in
  let levels_ref = ref [] and timed_ref = ref [] in
  let pass () =
    let store = the store in
    let v, t1 =
      op "verify_warm Verify.run_all"
        (fun () -> Verify.run_all ~jobs ~store ~workloads:six ())
        check_golden
    in
    let _, t2 =
      op "verify_warm Verify.run_all_levels"
        (fun () -> Verify.run_all_levels ~jobs ~store ~workloads:six ~levels ())
        (check_equal "level rows" !levels_ref)
    in
    let _, t3 =
      op "verify_warm Verify.run_all_timed"
        (fun () -> Verify.run_all_timed ~jobs ~store ~workloads:six ~levels ())
        (check_equal "time rows" !timed_ref)
    in
    { latencies = [ t1; t2; t3 ]; events = 6.0 *. !events;
      model_error = Option.to_list (Option.map model_error_pct v) }
  in
  let traced_pass () =
    let store = the store in
    let loaded pool = pool_map pool (traced_load store)
        (pool_map pool (traced_instance `Verification) six)
    in
    let walk f =
      span "pass" (fun () ->
          with_pool (fun pool -> List.concat (pool_map pool f (loaded pool))))
    in
    let v, t1 =
      op "verify_warm traced run_all"
        (fun () -> span "pass" (fun () -> traced_verify ~tapes:(traced_load store)))
        check_golden
    in
    let _, t2 =
      op "verify_warm traced levels"
        (fun () -> walk traced_levels)
        (fun rows -> Result.bind (check_equal "level rows" !levels_ref rows) (fun () -> check_l2 rows))
    in
    let _, t3 =
      op "verify_warm traced timed"
        (fun () -> walk traced_timed)
        (check_equal "time rows" !timed_ref)
    in
    { latencies = [ t1; t2; t3 ]; events = 6.0 *. !events;
      model_error = Option.to_list (Option.map model_error_pct v) }
  in
  {
    setup =
      (fun () ->
        let s = replace_store store "warm" in
        ignore (Verify.run_all ~jobs ~store:s ~workloads:six ()));
    prepare =
      (fun () ->
        let store = the store in
        events := store_events store (Lazy.force verification_instances);
        levels_ref := Verify.run_all_levels ~jobs:1 ~store ~workloads:six ~levels ();
        timed_ref := Verify.run_all_timed ~jobs:1 ~store ~workloads:six ~levels ());
    pass;
    traced_pass;
    probe_store = (fun () -> !store);
    teardown = ignore;
    min_ops = 0;
  }

let sweep () =
  let store = ref None and instances = ref [] in
  let refs = ref [] and events = ref 0.0 in
  let sweep_geometries = ref 0 in
  let run_pass ~traced =
    let results =
      List.map2
        (fun inst reference ->
          op
            ("sweep Experiments.cache_sweep " ^ inst.Workload.workload)
            (fun () ->
              if traced then span "pass" (fun () -> traced_sweep ~store:(the store) inst)
              else
                Experiments.cache_sweep ~jobs ~simulate:true ~store:(the store) inst)
            (check_equal "sweep rows" reference))
        !instances !refs
    in
    { latencies = List.map snd results;
      events = !events *. fint !sweep_geometries;
      model_error =
        [ sweep_error_pct (List.concat_map (fun (r, _) -> Option.value ~default:[] r) results) ] }
  in
  {
    setup =
      (fun () ->
        let s = replace_store store "sweep" in
        instances :=
          Dvf_util.Parallel.map_list ~jobs Workloads.profiling_instance
            Workloads.[ vm; ft; mc ];
        ignore
          (Dvf_util.Parallel.map_list ~jobs (fun i -> Verify.capture ~store:s i) !instances));
    prepare =
      (fun () ->
        let store = the store in
        refs :=
          List.map
            (fun inst -> Experiments.cache_sweep ~jobs:1 ~simulate:true ~store inst)
            !instances;
        sweep_geometries := List.length (List.hd !refs);
        events := store_events store !instances);
    pass = (fun () -> run_pass ~traced:false);
    traced_pass = (fun () -> run_pass ~traced:true);
    probe_store = (fun () -> None);
    teardown = ignore;
    min_ops = 0;
  }

(* ---- serve ---- *)

type request = {
  r_op : string;
  line : string;
  check : Json.t -> (unit, string) result;  (* on the reply's result *)
  r_events : float;
}

let request_line ~id ~op fields =
  Json.to_string ~indent:false
    (Json.Obj ([ ("id", Json.Int id); ("op", Json.Str op) ] @ fields))

let decode_reply line =
  match Json.parse_line line with
  | Ok (Some reply) -> (
      match Json.member "ok" reply, Json.member "result" reply with
      | Some (Json.Bool true), Some result -> Ok result
      | _ ->
          Error
            (match Json.member "error" reply with
            | Some (Json.Str e) -> "ok:false reply: " ^ e
            | _ -> "malformed reply"))
  | Ok None -> Error "empty reply"
  | Error e -> Error ("unparsable reply: " ^ e)

(* Traced runs time the row codecs too: the decoded rows are encoded
   again, which must give back the reply's bytes. *)
let traced_reencode op result =
  let encode to_json rows =
    span "json.encode"
      ~counts:(fun s -> [ ("bytes", fint (String.length s)) ])
      (fun () ->
        Json.to_string ~indent:false
          (Json.Obj [ ("rows", Json.List (List.map to_json rows)) ]))
  in
  let encoded =
    match op with
    | "verify" -> Some (encode Serve.verify_row_to_json (Serve.verify_rows_of_result result))
    | "levels" -> Some (encode Serve.level_row_to_json (Serve.level_rows_of_result result))
    | "timed" -> Some (encode Serve.time_row_to_json (Serve.timed_rows_of_result result))
    | "sweep" -> Some (encode Serve.sweep_row_to_json (Serve.sweep_rows_of_result result))
    | _ -> None
  in
  match encoded with
  | Some s when s <> Json.to_string ~indent:false result ->
      Error "re-encoded rows differ from the reply"
  | _ -> Ok ()

(* One closed-loop request: send it, wait for the reply, then decode and
   check the reply.  Every reply must also equal the first reply to the
   same request line. *)
let serve_request ~traced ~first_reply t (r : request) ~on_result =
  let call () =
    let handle () = Option.get (Serve.handle_line t r.line) in
    if traced then
      span ("serve.op." ^ r.r_op)
        ~counts:(fun reply -> [ ("bytes", fint (String.length reply)) ])
        handle
    else handle ()
  in
  let check reply =
    let decoded =
      if traced then
        span "json.parse"
          ~counts:(fun _ -> [ ("bytes", fint (String.length reply)) ])
          (fun () -> decode_reply reply)
      else decode_reply reply
    in
    let same_as_first () =
      match Hashtbl.find_opt first_reply r.line with
      | Some first when first <> reply ->
          Error "reply differs from the first reply to this request"
      | Some _ -> Ok ()
      | None ->
          Hashtbl.replace first_reply r.line reply;
          Ok ()
    in
    Result.bind decoded (fun result ->
        Result.bind (same_as_first ()) (fun () ->
            Result.bind (r.check result) (fun () ->
                Result.map
                  (fun () -> on_result result)
                  (if traced then traced_reencode r.r_op result else Ok ()))))
  in
  snd (op ("serve " ^ r.line) call check)

(* MG's profile (~30 s) would swamp every percentile. *)
let dvf_workloads = Workloads.[ vm; cg; nb; ft; mc ]

let serve () =
  let server = ref None and ref_store = ref None in
  let requests = ref [||] in
  let first_reply = Hashtbl.create 32 in
  let rng = Random.State.make [| !seed |] in
  let shutdown () = Option.iter Serve.shutdown !server; server := None in
  let run_round ~traced =
    let order = Array.copy !requests in
    for i = Array.length order - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- x
    done;
    let t = Option.get !server in
    let verify_rows = ref [] in
    let round () =
      List.map
        (fun r ->
          serve_request ~traced ~first_reply t r ~on_result:(fun result ->
              if r.r_op = "verify" then
                verify_rows := Serve.verify_rows_of_result result @ !verify_rows))
        (Array.to_list order)
    in
    let latencies = if traced then span "pass" round else round () in
    { latencies;
      events = sum (Array.to_list (Array.map (fun r -> r.r_events) order));
      model_error =
        (if !verify_rows <> [] then [ model_error_pct !verify_rows ] else []) }
  in
  let prepare () =
    let store = replace_store ref_store "serve-ref" in
    let v, _ =
      op "serve reference Verify.run_all"
        (fun () -> Verify.run_all ~jobs ~store ~workloads:six ())
        check_golden
    in
    let verify_ref = Option.value ~default:[] v in
    let levels_ref = Verify.run_all_levels ~jobs:1 ~store ~workloads:six ~levels () in
    let timed_ref = Verify.run_all_timed ~jobs:1 ~store ~workloads:six ~levels () in
    let events w =
      store_events store [ Workloads.verification_instance w ]
    in
    let name (w : Workload.t) = w.Workload.name in
    let of_workload (w : Workload.t) pick = List.filter (fun r -> pick r = w.Workload.name) in
    let id = ref 0 in
    let req ?(events = 0.0) ?workload ~op fields check =
      incr id;
      let fields =
        (match workload with Some w -> [ ("workload", Json.Str (name w)) ] | None -> [])
        @ fields
      in
      { r_op = op;
        line = request_line ~id:!id ~op fields; check; r_events = events }
    in
    let rows_equal what decode reference result =
      check_equal what reference (decode result)
    in
    let sweep_ref w =
      Experiments.cache_sweep ~jobs:1 ~simulate:true ~store
        (Workloads.verification_instance w)
    in
    requests :=
      Array.of_list
        (req ~op:"ping" [] (fun r ->
             if Json.member "pong" r = Some (Json.Bool true) then Ok ()
             else Error "no pong")
        :: List.map
             (fun w ->
               req ~op:"verify" ~workload:w ~events:(2.0 *. events w) []
                 (rows_equal "verify rows" Serve.verify_rows_of_result
                    (of_workload w (fun (r : Verify.row) -> r.Verify.workload) verify_ref)))
             six
        @ List.map
            (fun w ->
              req ~op:"levels" ~workload:w ~events:(2.0 *. events w)
                [ ("levels", Json.Int levels) ]
                (rows_equal "level rows" Serve.level_rows_of_result
                   (of_workload w (fun (r : Verify.level_row) -> r.Verify.l_workload)
                      levels_ref)))
            six
        @ List.map
            (fun w ->
              req ~op:"timed" ~workload:w ~events:(2.0 *. events w)
                [ ("levels", Json.Int levels) ]
                (rows_equal "time rows" Serve.timed_rows_of_result
                   (of_workload w (fun (r : Verify.time_row) -> r.Verify.t_workload)
                      timed_ref)))
            six
        @ List.map
            (fun w ->
              req ~op:"dvf" ~workload:w [] (fun r ->
                  if Serve.profile_rows_of_result r <> [] then Ok ()
                  else Error "no profile rows"))
            dvf_workloads
        @ List.map
            (fun w ->
              let reference = sweep_ref w in
              req ~op:"sweep" ~workload:w
                ~events:(events w *. fint (List.length reference))
                [] (rows_equal "sweep rows" Serve.sweep_rows_of_result reference))
            Workloads.[ vm; nb; mc ]
        @ [ req ~op:"chaos"
              [ ("workload", Json.Str Core.Service_workloads.name);
                ("seed", Json.Int !seed) ]
              (fun r ->
                if (Serve.chaos_report_of_result r).Core.Chaos.rows <> [] then Ok ()
                else Error "no chaos rows") ])
  in
  {
    setup =
      (fun () ->
        shutdown ();
        let t = Serve.create ~jobs ~workloads:six () in
        server := Some t;
        Serve.warm t;
        (* A daemon builds each profiling instance on its first dvf
           request; build them now, as a long-running server would have. *)
        List.iter
          (fun (w : Workload.t) ->
            ignore
              (Serve.handle_line t
                 (request_line ~id:0 ~op:"dvf" [ ("workload", Json.Str w.Workload.name) ])))
          dvf_workloads);
    prepare;
    pass = (fun () -> run_round ~traced:false);
    traced_pass = (fun () -> run_round ~traced:true);
    probe_store = (fun () -> !ref_store);
    teardown = shutdown;
    (* Ten samples beyond the 90th percentile. *)
    min_ops = 100;
  }

let workloads =
  [ ("verify_cold", verify_cold); ("verify_warm", verify_warm); ("sweep", sweep);
    ("serve", serve) ]

(* ---- traced runs: probes for the layers a workload's own pass skips ----

   Every traced run reports every per-layer metric.  Layers the
   workload's traced passes already timed are muted first, so each
   metric comes from the workload's own path where it has one, and from
   these probes (over the six verification tapes) otherwise. *)

let probes ~probe_store =
  let needed names = List.exists (fun n -> not (Spans.is_muted n)) names in
  let guarded what f = ignore (op ("probe " ^ what) f (fun _ -> Ok ())) in
  let instances = lazy (List.map (traced_instance `Verification) six) in
  let store =
    lazy
      (match probe_store with
      | Some s when not (needed [ "capture"; "tape_io.save" ]) -> s
      | _ ->
          let s = fresh_store "probe" in
          List.iter
            (fun inst -> traced_save s (traced_capture inst))
            (Lazy.force instances);
          s)
  in
  let caps = lazy (List.map (traced_load (Lazy.force store)) (Lazy.force instances)) in
  let caches = Config.verification_set in
  let replicas () = Array.of_list (List.map Cache.create caches) in
  if needed [ "capture"; "tape_io.save"; "tape_io.load"; "tape.materialize" ] then
    guarded "tapes" (fun () -> Lazy.force caps);
  if needed [ "model"; "cache.fused" ] then
    ignore
      (op "probe verify rows"
         (fun () ->
           List.concat_map (fun (cap, c) -> traced_rows cap c) (pairs (Lazy.force caps)))
         check_golden);
  if needed [ "model.template" ] then
    guarded "templates" (fun () -> traced_templates (Lazy.force instances));
  if needed [ "cache.partition"; "cache.sharded"; "cache.sharded_serial" ] then
    ignore
      (op "probe sharded walk"
         (fun () ->
           let caps = Lazy.force caps in
           let events cap = [ ("events", events_of cap *. fint (List.length caches)) ] in
           let views =
             List.map
               (fun cap ->
                 span "cache.partition"
                   ~counts:(fun views ->
                     let total f = fint (Array.fold_left (fun a v -> a + f v) 0 views) in
                     [ ("chunks_skipped", total Tape.view_chunks_skipped);
                       ("chunks_walked", total Tape.view_chunks) ])
                   (fun () -> Tape.partition cap.Verify.tape (replicas ()) ~shards:jobs))
               caps
           in
           let shard views s =
             let sims = replicas () in
             Tape.replay_view views.(s) sims;
             Array.iter Cache.flush sims;
             Array.map Cache.stats sims
           in
           let merge per_shard =
             List.mapi
               (fun i _ ->
                 Stats.total_main_memory_accesses
                   (Stats.sum (List.map (fun st -> st.(i)) per_shard)))
               caches
           in
           let shard_ids = List.init jobs Fun.id in
           let parallel =
             with_pool (fun pool ->
                 List.map2
                   (fun cap views ->
                     span "cache.sharded" ~counts:(fun _ -> events cap) (fun () ->
                         merge (Pool.map_list pool (shard views) shard_ids)))
                   caps views)
           in
           let serial =
             List.map2
               (fun cap views ->
                 span "cache.sharded_serial" ~counts:(fun _ -> events cap) (fun () ->
                     merge (List.map (shard views) shard_ids)))
               caps views
           in
           (parallel, serial))
         (fun (parallel, serial) ->
           if parallel = serial then Ok ()
           else Error "the two-domain sharded walk differs from the serial one"));
  if needed [ "hierarchy"; "residency" ] then
    ignore
      (op "probe hierarchy"
         (fun () ->
           List.concat_map
             (fun cap ->
               ignore (traced_timed cap);
               traced_levels cap)
             (Lazy.force caps))
         check_l2);
  if needed [ "sweep.model"; "sweep.walk" ] then
    guarded "sweep" (fun () ->
        List.iter2
          (fun w cap ->
            let inst = traced_instance `Profiling w in
            let rows =
              span "sweep.model" (fun () ->
                  Experiments.cache_sweep ~jobs ~simulate:false inst)
            in
            ignore
              (traced_sweep_walk cap
                 (List.map (fun (r : Experiments.sweep_row) -> r.Experiments.sweep_cache) rows)))
          Workloads.[ vm; ft; mc ]
          (List.filter
             (fun (c : Verify.capture) ->
               List.mem c.Verify.instance.Workload.workload [ "VM"; "FT"; "MC" ])
             (Lazy.force caps)));
  let serve_ops = [ "ping"; "verify"; "levels"; "timed"; "dvf"; "sweep"; "chaos" ] in
  if needed ("json.encode" :: "json.parse" :: List.map (( ^ ) "serve.op.") serve_ops)
  then begin
    let t = Serve.create ~jobs ~store:(Lazy.force store) ~workloads:six () in
    Serve.warm t;
    let first_reply = Hashtbl.create 8 in
    let request op fields =
      { r_op = op; line = request_line ~id:0 ~op fields; check = (fun _ -> Ok ());
        r_events = 0.0 }
    in
    let vm = [ ("workload", Json.Str "VM") ] in
    List.iter
      (fun r -> ignore (serve_request ~traced:true ~first_reply t r ~on_result:ignore))
      (List.init 20 (fun _ -> request "ping" [])
      @ [ request "verify" vm; request "levels" vm; request "timed" vm;
          request "dvf" vm; request "sweep" vm;
          request "chaos"
            [ ("workload", Json.Str Core.Service_workloads.name);
              ("seed", Json.Int !seed) ] ]);
    Serve.shutdown t
  end;
  if needed [ "chaos" ] then
    guarded "chaos" (fun () ->
        span "chaos"
          ~counts:(function
            | Some (r : Core.Chaos.report) ->
                [ ("trials",
                   fint (List.fold_left (fun a (x : Core.Chaos.row) -> a + x.Core.Chaos.trials) 0
                           r.Core.Chaos.rows)) ]
            | None -> [])
          (fun () -> Core.Chaos.run ~seed:!seed (Core.Service_workloads.workload ())))

(* ---- metrics ---- *)

type metric = { name : string; unit : string; value : float }

let peak_rss_mb () =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> fint kb /. 1024.0)

(* Sets the high-water mark back to the current RSS (Linux, proc(5)
   clear_refs), so a pass's peak leaves out set-up, the references and
   the passes before it. *)
let reset_peak_rss () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error e -> Printf.eprintf "perfbench: peak_rss_mb includes set-up (%s)\n%!" e

(* The high-water mark of each measured pass, MB. *)
let pass_peaks = ref []

let success_rate () = fint (!attempted - !failed) /. fint (max 1 !attempted)

let end_to_end ~setup_times passes =
  let walls = List.map (fun p -> sum p.latencies) passes in
  let latencies = List.concat_map (fun p -> p.latencies) passes in
  let wall = median walls in
  [
    { name = "setup_s"; unit = "s"; value = median setup_times };
    { name = "wall_s"; unit = "s"; value = wall };
    { name = "sim_events_per_s"; unit = "events/s";
      value = median (List.map (fun p -> p.events) passes) /. wall };
    { name = "req_p50_ms"; unit = "ms"; value = 1e3 *. quantile 0.5 latencies };
    { name = "req_p90_ms"; unit = "ms"; value = 1e3 *. quantile 0.9 latencies };
    { name = "req_per_s"; unit = "1/s";
      value = fint (List.length latencies) /. sum latencies };
    { name = "peak_rss_mb"; unit = "MB"; value = median !pass_peaks };
    { name = "success_rate"; unit = "fraction"; value = success_rate () };
    { name = "model_error_pct"; unit = "%";
      value = List.fold_left Float.max 0.0 (List.concat_map (fun p -> p.model_error) passes) };
  ]

(* The end-to-end metric each layer should move, by metric-name prefix. *)
let moves =
  [
    ("capture.", "wall_s on verify_cold; setup_s elsewhere");
    ("tape.", "wall_s on verify_cold; setup_s elsewhere");
    ("tape_io.save", "wall_s on verify_cold");
    ("tape_io.", "wall_s on verify_warm, and sweep slightly");
    ("tape_store.", "wall_s on verify_warm, and sweep slightly");
    ("cache.", "sim_events_per_s on sweep, then verify_*; req_p90_ms on serve");
    ("parallel.", "sim_events_per_s on sweep, then verify_*; req_p90_ms on serve");
    ("hierarchy.", "wall_s on verify_warm; req_p90_ms on serve (levels)");
    ("residency.", "wall_s on verify_warm; req_p90_ms on serve (timed)");
    ("model.", "wall_s on verify_cold, verify_warm and sweep; req_p90_ms on serve");
    ("sweep.", "wall_s on sweep");
    ("serve.", "req_p50_ms on serve");
    ("json.", "req_p50_ms on serve");
    ("chaos.", "req_p50_ms on serve");
    ("gc.", "peak_rss_mb and wall_s");
    ("trace.", "none: the cost of tracing");
  ]

(* Per-layer metrics, each with the span it is read from. *)
let per_layer ~untraced ~traced ~majors =
  let layers = Spans.layers () in
  let get name =
    match Hashtbl.find_opt layers name with
    | Some l -> l
    | None ->
        { Spans.calls = 0; self_s = nan; total_s = nan; durations = [];
          sums = Hashtbl.create 1 }
  in
  let count name key = Option.value ~default:nan (Hashtbl.find_opt (get name).Spans.sums key) in
  let self name = (get name).Spans.self_s and total name = (get name).Spans.total_s in
  let calls name = fint (get name).Spans.calls in
  (* Per six-workload set: the passes and probes walk all six tapes. *)
  let per_set name v = v *. 6.0 /. calls name in
  let rate name key = count name key /. self name in
  let mb_rate name = count name "bytes" /. 1e6 /. self name in
  let median_ms name = 1e3 *. median (get name).Spans.durations in
  (* The sharded walks run on two domains: wall time, not busy time. *)
  let walk_rate name = count name "events" /. total name in
  let pass_s ps = median (List.map (fun p -> sum p.latencies) ps) in
  let m span name unit value = (span, { name; unit; value }) in
  let rows =
    [
      m "capture" "capture.events" "events" (per_set "capture" (count "capture" "events"));
      m "capture" "capture.events_per_s" "events/s" (rate "capture" "events");
      m "capture" "capture.alloc_words_per_event" "words/event"
        (count "capture" "alloc_words" /. count "capture" "events");
      m "capture" "tape.bytes_per_event" "B/event"
        (count "capture" "allocated_bytes" /. count "capture" "events");
      m "tape_io.save" "tape_io.save_mb_per_s" "MB/s" (mb_rate "tape_io.save");
      m "tape_io.load" "tape_io.load_s" "s" (per_set "tape_io.load" (self "tape_io.load"));
      m "tape.materialize" "tape_io.decode_mb_per_s" "MB/s" (mb_rate "tape.materialize");
      m "tape_io.load" "tape_store.hits" "count"
        (per_set "tape_io.load" (count "tape_io.load" "hits"));
      m "cache.fused" "cache.fused_events_per_s" "events/s" (rate "cache.fused" "events");
      m "cache.sharded" "cache.sharded_events_per_s" "events/s" (walk_rate "cache.sharded");
      m "cache.partition" "cache.partition_s" "s"
        (per_set "cache.partition" (self "cache.partition"));
      m "cache.partition" "cache.chunks_skipped_frac" "fraction"
        (count "cache.partition" "chunks_skipped"
        /. (count "cache.partition" "chunks_skipped"
           +. count "cache.partition" "chunks_walked"));
      m "cache.fused" "cache.alloc_words_per_event" "words/event"
        (count "cache.fused" "alloc_words" /. count "cache.fused" "events");
      m "cache.sharded" "parallel.speedup_2dom" "x"
        (walk_rate "cache.sharded" /. walk_rate "cache.sharded_serial");
      m "hierarchy" "hierarchy.events_per_s" "events/s" (rate "hierarchy" "events");
      m "hierarchy" "hierarchy.l2_accesses" "count"
        (per_set "hierarchy" (count "hierarchy" "l2_accesses"));
      m "residency" "residency.events_per_s" "events/s" (rate "residency" "events");
      m "residency" "residency.cost_ratio" "x"
        (rate "hierarchy" "events" /. rate "residency" "events");
      (* Per verify pass: six workloads on two caches, 12 evaluations. *)
      m "model" "model.evals" "count" (2.0 *. per_set "model" (calls "model"));
      m "model" "model.s" "s" (2.0 *. per_set "model" (total "model"));
      m "model.template" "model.template_s" "s"
        (12.0 *. total "model.template" /. calls "model.template");
      m "sweep.model" "sweep.model_s" "s" (total "sweep.model" *. 3.0 /. calls "sweep.model");
      m "sweep.walk" "sweep.walk_events_per_s" "events/s" (walk_rate "sweep.walk");
      m "serve.op.ping" "serve.dispatch_us" "us" (1e3 *. median_ms "serve.op.ping");
    ]
    @ List.map
        (fun op ->
          let span = "serve.op." ^ op in
          m span (span ^ "_ms") "ms" (median_ms span))
        [ "verify"; "levels"; "timed"; "dvf"; "sweep"; "chaos" ]
    @ [
        m "json.encode" "json.encode_mb_per_s" "MB/s" (mb_rate "json.encode");
        m "json.parse" "json.parse_mb_per_s" "MB/s" (mb_rate "json.parse");
        m "chaos" "chaos.trials_per_s" "trials/s" (rate "chaos" "trials");
        m "pass" "gc.major_collections" "count" (median majors);
        m "pass" "trace.overhead_frac" "fraction" ((pass_s traced /. pass_s untraced) -. 1.0);
      ]
  in
  List.iter
    (fun (span, metric) ->
      Printf.printf "perfbench: %-30s %12.5g %-11s span %-17s self %8.4f s  moves %s\n"
        metric.name metric.value metric.unit span (self span)
        (snd (List.find (fun (prefix, _) -> String.starts_with ~prefix metric.name) moves)))
    rows;
  List.map snd rows

(* ---- main ---- *)

(* Passes until [budget] seconds have gone by and at least [min_ops]
   operations were timed; always at least one pass.  Each pass, like each
   set-up, starts from a collected heap, as a fresh process would, and
   from a reset high-water mark; neither is timed. *)
let measure ?(min_ops = 0) budget f =
  let t0 = now () in
  let rec go acc ops =
    Gc.full_major ();
    reset_peak_rss ();
    let p = f () in
    pass_peaks := peak_rss_mb () :: !pass_peaks;
    let ops = ops + List.length p.latencies in
    if now () -. t0 >= budget && ops >= min_ops then List.rev (p :: acc)
    else go (p :: acc) ops
  in
  go [] 0

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let () =
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload_name workloads with
    | Some make -> make
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload_name
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 then begin
    prerr_endline "perfbench: --trace must be 0 or 1 and --seconds positive";
    exit 2
  end;
  if not (Sys.file_exists !golden_path) then begin
    Printf.eprintf "perfbench: golden table %s not found\n" !golden_path;
    exit 2
  end;
  (* Dvf_util.Maths.log_factorial fills its table through a [lazy]
     (lib/util/maths.ml); two domains forcing it at once can raise
     CamlinternalLazy.Undefined.  Force it here, before anything runs in
     parallel. *)
  ignore (Dvf_util.Maths.log_factorial 2);
  let w = make () in
  let traced = !trace = 1 in
  let setup_times =
    List.init (if traced then 1 else setup_reps) (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        w.setup ();
        now () -. t0)
  in
  w.prepare ();
  let metrics, samples =
    if not traced then begin
      let passes = measure ~min_ops:w.min_ops !seconds w.pass in
      (end_to_end ~setup_times passes, passes)
    end
    else begin
      let majors = ref [] in
      let untraced =
        measure (!seconds /. 2.0) (fun () ->
            let m0 = major_collections () in
            let p = w.pass () in
            majors := fint (major_collections () - m0) :: !majors;
            p)
      in
      Spans.enabled := true;
      let traced_passes = measure (!seconds /. 2.0) w.traced_pass in
      Spans.mute_seen ();
      probes ~probe_store:(w.probe_store ());
      Spans.enabled := false;
      if !spans_path <> "" then Spans.write_file !spans_path;
      (per_layer ~untraced ~traced:traced_passes ~majors:!majors, untraced @ traced_passes)
    end
  in
  w.teardown ();
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then fail "metrics" (m.name ^ " was not measured"))
    metrics;
  Printf.printf "perfbench: workload=%s seed=%d trace=%d passes=%d operations=%d\n"
    !workload_name !seed !trace (List.length samples)
    (List.fold_left (fun a p -> a + List.length p.latencies) 0 samples);
  Printf.printf "perfbench: setup %s s; passes %s s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times))
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.3f" (sum p.latencies)) samples));
  Printf.printf "perfbench: host nproc=%d ocaml=%s jobs=%d\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version jobs;
  let value v = if Float.is_finite v then Json.Float v else Json.Float 0.0 in
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     (m.name, Json.Obj [ ("value", value m.value); ("unit", Json.Str m.unit) ]))
                   metrics) );
          ]))
