(* The query engine behind [dvf serve] and [dvf query]: hold every
   workload's capture in memory (warmed once, optionally through a
   persistent tape store) and answer line-JSON requests against it.
   This module is protocol and computation only — no sockets, no
   stdin/stdout; the transport loop lives in the CLI, which feeds
   [handle_line]/[handle_batch] raw request lines and writes back the
   raw response lines they return. *)

module Telemetry = Dvf_util.Telemetry
module Json = Dvf_util.Json

let schema = "dvf-query"
let schema_version = 1

type t = {
  telemetry : Telemetry.t;
  store : Memtrace.Tape_store.t option;
  pool : Dvf_util.Parallel.Pool.t;
  (* One flushed cache replica per geometry, reused by every request:
     building and flushing a large 2-level hierarchy is most of a small
     request's time. *)
  replicas : Verify.replica_store;
  workloads : Workload.t list;
  (* Both caches are keyed by lowercase registry name and guarded by
     [mutex]; request handlers run on pool domains. *)
  captures : (string, Verify.capture) Hashtbl.t;
  profiling : (string, Workload.instance) Hashtbl.t;
  mutex : Mutex.t;
  mutable requests : int;
}

let create ?(telemetry = Telemetry.null) ?store ?jobs ?workloads () =
  let workloads =
    match workloads with Some ws -> ws | None -> Workloads.all ()
  in
  {
    telemetry;
    store;
    pool = Dvf_util.Parallel.Pool.create ~telemetry ?jobs ();
    replicas = Verify.replica_store ~keep:1 ();
    workloads;
    captures = Hashtbl.create 16;
    profiling = Hashtbl.create 16;
    mutex = Mutex.create ();
    requests = 0;
  }

let shutdown t = Dvf_util.Parallel.Pool.shutdown t.pool
let workload_names t = List.map (fun w -> w.Workload.name) t.workloads

let lookup t name =
  let key = String.lowercase_ascii name in
  List.find_opt
    (fun w -> String.lowercase_ascii w.Workload.name = key)
    t.workloads

let find_workload t name =
  match lookup t name with
  | Some w -> w
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S (serving: %s)" name
           (String.concat ", " (workload_names t)))

let capture_for t (w : Workload.t) =
  let key = String.lowercase_ascii w.Workload.name in
  match
    Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.captures key)
  with
  | Some cap -> cap
  | None ->
      let cap =
        Verify.capture ~telemetry:t.telemetry ?store:t.store
          (Workloads.verification_instance w)
      in
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.captures key with
          | Some cap -> cap (* a concurrent request won the race *)
          | None ->
              Hashtbl.replace t.captures key cap;
              cap)

let profiling_instance_for t (w : Workload.t) =
  let key = String.lowercase_ascii w.Workload.name in
  match
    Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.profiling key)
  with
  | Some inst -> inst
  | None ->
      let inst = Workloads.profiling_instance w in
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.profiling key with
          | Some inst -> inst
          | None ->
              Hashtbl.replace t.profiling key inst;
              inst)

let warm t =
  Telemetry.span t.telemetry "serve/warm" @@ fun () ->
  ignore (Dvf_util.Parallel.Pool.map_list t.pool (capture_for t) t.workloads)

let warm_count t =
  Mutex.protect t.mutex (fun () -> Hashtbl.length t.captures)

(* {2 Row codecs}

   Each served type is declared once, as a {!Json.Codec}: its encoder
   and its decoder come from the one declaration.  Floats are emitted by
   [Json.to_string] as [%.17g], which round-trips exactly; so a client
   that decodes these rows and renders them through [Verify.to_table]
   (etc.) reproduces the one-shot CLI output byte for byte. *)

module C = Json.Codec

let config =
  C.(
    obj "cache config" (fun name associativity sets line ->
        Cachesim.Config.make ~name ~associativity ~sets ~line)
    |> field "name" string (fun c -> c.Cachesim.Config.name)
    |> field "associativity" int (fun c -> c.Cachesim.Config.associativity)
    |> field "sets" int (fun c -> c.Cachesim.Config.sets)
    |> field "line" int (fun c -> c.Cachesim.Config.line)
    |> finish)

let verify_row =
  C.(
    obj "verify row" (fun workload cache structure simulated modeled ->
        { Verify.workload; cache; structure; simulated; modeled })
    |> field "workload" string (fun r -> r.Verify.workload)
    |> field "cache" config (fun r -> r.Verify.cache)
    |> field "structure" string (fun r -> r.Verify.structure)
    |> field "simulated" float (fun r -> r.Verify.simulated)
    |> field "modeled" float (fun r -> r.Verify.modeled)
    |> finish)

let level_row =
  C.(
    obj "level row"
      (fun l_workload base_cache level level_cache l_structure accesses
           misses l_writebacks ->
        { Verify.l_workload; base_cache; level; level_cache; l_structure;
          accesses; misses; l_writebacks })
    |> field "workload" string (fun r -> r.Verify.l_workload)
    |> field "base_cache" config (fun r -> r.Verify.base_cache)
    |> field "level" int (fun r -> r.Verify.level)
    |> field "level_cache" config (fun r -> r.Verify.level_cache)
    |> field "structure" string (fun r -> r.Verify.l_structure)
    |> field "accesses" float (fun r -> r.Verify.accesses)
    |> field "misses" float (fun r -> r.Verify.misses)
    |> field "writebacks" float (fun r -> r.Verify.l_writebacks)
    |> finish)

let time_row =
  C.(
    obj "time row"
      (fun t_workload t_base t_level t_cache t_structure t_horizon t_bins
           clean_time dirty_time t_fills t_evictions t_flushes window
           window_dirty ->
        { Verify.t_workload; t_base; t_level; t_cache; t_structure;
          t_horizon; t_bins; clean_time; dirty_time; t_fills; t_evictions;
          t_flushes; window; window_dirty })
    |> field "workload" string (fun r -> r.Verify.t_workload)
    |> field "base_cache" config (fun r -> r.Verify.t_base)
    |> field "level" int (fun r -> r.Verify.t_level)
    |> field "level_cache" config (fun r -> r.Verify.t_cache)
    |> field "structure" string (fun r -> r.Verify.t_structure)
    |> field "horizon" int (fun r -> r.Verify.t_horizon)
    |> field "bins" int (fun r -> r.Verify.t_bins)
    |> field "clean_time" float (fun r -> r.Verify.clean_time)
    |> field "dirty_time" float (fun r -> r.Verify.dirty_time)
    |> field "fills" float (fun r -> r.Verify.t_fills)
    |> field "evictions" float (fun r -> r.Verify.t_evictions)
    |> field "flushes" float (fun r -> r.Verify.t_flushes)
    |> field "window" (array float) (fun r -> r.Verify.window)
    |> field "window_dirty" (array float) (fun r -> r.Verify.window_dirty)
    |> finish)

let profile_row =
  C.(
    obj "profile row" (fun workload cache structure dvf n_ha bytes time ->
        { Profile.workload; cache; structure; dvf; n_ha; bytes; time })
    |> field "workload" string (fun r -> r.Profile.workload)
    |> field "cache" config (fun r -> r.Profile.cache)
    |> field "structure" string (fun r -> r.Profile.structure)
    |> field "dvf" float (fun r -> r.Profile.dvf)
    |> field "n_ha" float (fun r -> r.Profile.n_ha)
    |> field "bytes" int (fun r -> r.Profile.bytes)
    |> field "time" float (fun r -> r.Profile.time)
    |> finish)

let sweep_row =
  C.(
    obj "sweep row" (fun capacity sweep_cache dvf_a n_ha sim_n_ha ->
        { Experiments.capacity; sweep_cache; dvf_a; n_ha; sim_n_ha })
    |> field "capacity" int (fun r -> r.Experiments.capacity)
    |> field "cache" config (fun r -> r.Experiments.sweep_cache)
    |> field "dvf_a" float (fun r -> r.Experiments.dvf_a)
    |> field "n_ha" float (fun r -> r.Experiments.n_ha)
    |> field "sim_n_ha" (option float) (fun r -> r.Experiments.sim_n_ha)
    |> finish)

(* The Wilson interval travels as two members, [ci_lo] and [ci_hi]. *)
let chaos_row =
  C.(
    obj "chaos row"
      (fun endpoint weight trials lost availability ci_lo ci_hi dvf ->
        { Chaos.endpoint; weight; trials; lost; availability;
          ci = (ci_lo, ci_hi); dvf })
    |> field "endpoint" string (fun r -> r.Chaos.endpoint)
    |> field "weight" float (fun r -> r.Chaos.weight)
    |> field "trials" int (fun r -> r.Chaos.trials)
    |> field "lost" int (fun r -> r.Chaos.lost)
    |> field "availability" float (fun r -> r.Chaos.availability)
    |> field "ci_lo" float (fun r -> fst r.Chaos.ci)
    |> field "ci_hi" float (fun r -> snd r.Chaos.ci)
    |> field "dvf" float (fun r -> r.Chaos.dvf)
    |> finish)

let chaos_report =
  C.(
    obj "chaos result"
      (fun workload label kill_fraction killed_per_trial components seed
           requests_lost rho rows ->
        { Chaos.workload; label; kill_fraction; killed_per_trial;
          components; seed; rows; requests_lost; rho })
    |> field "workload" string (fun r -> r.Chaos.workload)
    |> field "label" string (fun r -> r.Chaos.label)
    |> field "kill_fraction" float (fun r -> r.Chaos.kill_fraction)
    |> field "killed_per_trial" int (fun r -> r.Chaos.killed_per_trial)
    |> field "components" int (fun r -> r.Chaos.components)
    |> field "seed" int (fun r -> r.Chaos.seed)
    |> field "requests_lost" float (fun r -> r.Chaos.requests_lost)
    |> field "rho" (option float) (fun r -> r.Chaos.rho)
    |> field "rows" (list chaos_row) (fun r -> r.Chaos.rows)
    |> finish)

(* A replay op's result: its rows, in order. *)
let rows row =
  C.(obj "response result" Fun.id |> field "rows" (list row) Fun.id |> finish)

let rows_of_result row = C.decode (rows row)
let verify_row_to_json = C.encode verify_row
let verify_row_of_json = C.decode verify_row
let level_row_to_json = C.encode level_row
let time_row_to_json = C.encode time_row
let profile_row_to_json = C.encode profile_row
let profile_row_of_json = C.decode profile_row
let sweep_row_to_json = C.encode sweep_row
let chaos_report_to_json = C.encode chaos_report
let chaos_report_of_result = C.decode chaos_report
let verify_rows_of_result = rows_of_result verify_row
let level_rows_of_result = rows_of_result level_row
let timed_rows_of_result = rows_of_result time_row
let profile_rows_of_result = rows_of_result profile_row
let sweep_rows_of_result = rows_of_result sweep_row

(* {2 Tape file inspection}

   The payload behind [dvf tape info]: the on-disk header, provenance
   and layout summary.  Lives here so it shares the row-codec
   conventions — the JSON line round-trips exactly, and the rendered
   table is byte-stable for CI comparison. *)

type tape_info = {
  ti_version : int;
  ti_workload : string;
  ti_size : string;
  ti_seed : int;
  ti_chunk_events : int;
  ti_events : int;
  ti_chunks : int;
  ti_regions : int;
}

let tape_info_of_file path =
  match Memtrace.Tape_io.read_version path with
  | Error e -> Error e
  | Ok version -> (
      match Memtrace.Tape_io.load path with
      | Error e -> Error e
      | Ok (meta, registry, tape) ->
          Ok
            {
              ti_version = version;
              ti_workload = meta.Memtrace.Tape_io.workload;
              ti_size = meta.Memtrace.Tape_io.size;
              ti_seed = meta.Memtrace.Tape_io.seed;
              ti_chunk_events = Memtrace.Tape.chunk_events tape;
              ti_events = Memtrace.Tape.length tape;
              ti_chunks = Memtrace.Tape.chunk_count tape;
              ti_regions = List.length (Memtrace.Region.regions registry);
            })

let tape_info =
  C.(
    obj "tape info"
      (fun ti_version ti_workload ti_size ti_seed ti_chunk_events ti_events
           ti_chunks ti_regions ->
        { ti_version; ti_workload; ti_size; ti_seed; ti_chunk_events;
          ti_events; ti_chunks; ti_regions })
    |> field "version" int (fun i -> i.ti_version)
    |> field "workload" string (fun i -> i.ti_workload)
    |> field "size" string (fun i -> i.ti_size)
    |> field "seed" int (fun i -> i.ti_seed)
    |> field "chunk_events" int (fun i -> i.ti_chunk_events)
    |> field "events" int (fun i -> i.ti_events)
    |> field "chunks" int (fun i -> i.ti_chunks)
    |> field "regions" int (fun i -> i.ti_regions)
    |> finish)

let tape_info_to_json = C.encode tape_info
let tape_info_of_json = C.decode tape_info

let tape_info_table i =
  let t =
    Dvf_util.Table.create ~title:"Tape file: header"
      [ ("field", Dvf_util.Table.Left); ("value", Dvf_util.Table.Right) ]
  in
  List.iter
    (fun (k, v) -> Dvf_util.Table.add_row t [ k; v ])
    [
      ("format version", string_of_int i.ti_version);
      ("workload", i.ti_workload);
      ("size", i.ti_size);
      ("seed", string_of_int i.ti_seed);
      ("chunk capacity (events)", string_of_int i.ti_chunk_events);
      ("events", string_of_int i.ti_events);
      ("chunks", string_of_int i.ti_chunks);
      ("regions", string_of_int i.ti_regions);
    ];
  t

(* {2 Request dispatch} *)

(* A request parameter, [None] when absent; a present one must decode
   with [codec] ([null] included).  [optional] reads [null] as absent. *)
let param req k codec =
  Option.map (C.decode ~what:(Printf.sprintf "%S" k) codec) (Json.member k req)

let optional req k codec = Option.join (param req k (C.option codec))

let requested_workloads t req =
  match optional req "workload" C.string with
  | None -> t.workloads
  | Some name -> [ find_workload t name ]

let required_workload t req =
  match param req "workload" C.string with
  | Some name -> find_workload t name
  | None -> failwith "this op requires a \"workload\" field"

(* Size parameters are allocated in full, and [Out_of_memory] would take
   the daemon down: each is capped at about 100x its default. *)
let at_most what max n =
  if n > max then failwith (Printf.sprintf "%S must be at most %d" what max);
  n

(* Handlers run on a pool domain ([handle_batch]) or in the caller's
   ([handle_line]); either way the replay ops below fan their walks and
   row builds out over [t.pool] (a nested map when the handler runs on
   one of its workers).  With [jobs = 1] all of it runs in the calling
   domain.  Each answers [rows_of w] for every requested workload [w]. *)
let replay_op t req row rows_of =
  C.encode (rows row) (List.concat_map rows_of (requested_workloads t req))

let op_verify t req =
  replay_op t req verify_row (fun w ->
      Verify.capture_rows ~telemetry:t.telemetry ~pool:t.pool
        ~replicas:t.replicas (capture_for t w))

let op_levels t req =
  let levels = Option.value (param req "levels" C.int) ~default:2 in
  replay_op t req level_row (fun w ->
      Verify.capture_level_rows ~telemetry:t.telemetry ~pool:t.pool
        ~replicas:t.replicas ~levels (capture_for t w))

let op_timed t req =
  let levels = Option.value (param req "levels" C.int) ~default:1 in
  let bins =
    Option.fold (param req "bins" C.int)
      ~none:Cachesim.Residency.default_bins ~some:(at_most "bins" 2000)
  in
  replay_op t req time_row (fun w ->
      Verify.capture_time_rows ~telemetry:t.telemetry ~pool:t.pool
        ~replicas:t.replicas ~levels ~bins (capture_for t w))

let op_dvf t req =
  replay_op t req profile_row (fun w ->
      let instance = profiling_instance_for t w in
      List.concat_map
        (fun cache -> Profile.profile_instance ~cache instance)
        Cachesim.Config.profiling_set)

let op_sweep t req =
  let w = required_workload t req in
  let capacities = optional req "capacities" C.(list int) in
  (* a simulated sweep builds every cache at once: bound their sum *)
  Option.iter
    (fun cs ->
      let bound = at_most "capacities (each and summed)" (1 lsl 30) in
      ignore (List.fold_left (fun sum c -> bound (sum + max 0 (bound c))) 0 cs))
    capacities;
  let simulate = Option.value (param req "simulate" C.bool) ~default:true in
  let capture = capture_for t w in
  C.encode (rows sweep_row)
    (Experiments.cache_sweep ~jobs:1 ~telemetry:t.telemetry ?capacities
       ~simulate ~capture capture.Verify.instance)

(* Chaos runs take any workload with a topology: a served one, or a
   built-in service workload registered on demand — so the op works
   against a default server (which serves only the auto-registered
   kernels) without changing any other op's workload set. *)
let op_chaos t req =
  let w =
    match optional req "workload" C.string with
    | None -> Service_workloads.workload ()
    | Some name -> (
        match lookup t name with
        | Some w -> w
        | None -> (
            match Service_workloads.find name with
            | Some w -> w
            | None -> find_workload t name))
  in
  let trials =
    Option.map (at_most "trials" 100_000) (optional req "trials" C.int)
  in
  let kill_fraction = optional req "kill_fraction" C.float in
  let seed = optional req "seed" C.int in
  match
    Chaos.run ?seed ?trials ?kill_fraction ~telemetry:t.telemetry w
  with
  | Some report -> chaos_report_to_json report
  | None ->
      failwith
        (Printf.sprintf "workload %S has no service-graph topology"
           w.Workload.name)

let op_stats t _ =
  Json.Obj
    [
      ("requests", Json.Int (Mutex.protect t.mutex (fun () -> t.requests)));
      ("workloads", Json.Int (List.length t.workloads));
      ("warm_captures", Json.Int (warm_count t));
      ( "store",
        match t.store with
        | Some s -> Json.Str (Memtrace.Tape_store.dir s)
        | None -> Json.Null );
    ]

let ops =
  [
    ("ping", fun _ _ -> Json.Obj [ ("pong", Json.Bool true) ]);
    ( "workloads",
      fun t _ ->
        Json.Obj [ ("workloads", C.(encode (list string)) (workload_names t)) ]
    );
    ("verify", op_verify);
    ("levels", op_levels);
    ("timed", op_timed);
    ("dvf", op_dvf);
    ("sweep", op_sweep);
    ("chaos", op_chaos);
    ("stats", op_stats);
  ]

let dispatch t ~op req =
  match List.assoc_opt op ops with
  | Some handler -> handler t req
  | None ->
      failwith
        (Printf.sprintf "unknown op %S (supported: %s)" op
           (String.concat ", " (List.map fst ops)))

let envelope ~id fields =
  Json.to_string ~indent:false
    (Json.Obj
       ([
          ("schema", Json.Str schema);
          ("schema_version", Json.Int schema_version);
          ("id", id);
        ]
       @ fields))

let ok_response ~id result =
  envelope ~id [ ("ok", Json.Bool true); ("result", result) ]

let error_response ~id msg =
  envelope ~id [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let handle_request t req =
  let id = Option.value (Json.member "id" req) ~default:Json.Null in
  match Json.member "op" req with
  | Some (Json.Str op) -> (
      Mutex.protect t.mutex (fun () -> t.requests <- t.requests + 1);
      Telemetry.add t.telemetry "serve/requests";
      match
        Telemetry.span t.telemetry ("serve/op/" ^ op) (fun () ->
            dispatch t ~op req)
      with
      | result -> ok_response ~id result
      | exception Failure msg -> error_response ~id msg
      | exception Invalid_argument msg -> error_response ~id msg
      | exception Not_found -> error_response ~id "not found")
  | Some _ -> error_response ~id "\"op\" must be a string"
  | None -> error_response ~id "request has no \"op\" field"

let handle_line t line =
  match Json.parse_line line with
  | Ok None -> None (* blank keep-alive line: no response *)
  | Ok (Some req) -> Some (handle_request t req)
  | Error msg -> Some (error_response ~id:Json.Null msg)

(* Order-preserving: response [i] answers request line [i] (blank lines
   produce no response).  Requests run concurrently on the pool, and a
   replay op's own tasks go onto the same pool as nested maps. *)
let handle_batch t lines =
  List.filter_map Fun.id
    (Dvf_util.Parallel.Pool.map_list t.pool (handle_line t) lines)
