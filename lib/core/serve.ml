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

let find_workload t name =
  let key = String.lowercase_ascii name in
  match
    List.find_opt
      (fun w -> String.lowercase_ascii w.Workload.name = key)
      t.workloads
  with
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

   Floats are emitted by [Json.to_string] as [%.17g], which round-trips
   exactly; so a client that decodes these rows and renders them through
   [Verify.to_table] (etc.) reproduces the one-shot CLI output byte for
   byte. *)

let config_to_json (c : Cachesim.Config.t) =
  Json.Obj
    [
      ("name", Json.Str c.Cachesim.Config.name);
      ("associativity", Json.Int c.Cachesim.Config.associativity);
      ("sets", Json.Int c.Cachesim.Config.sets);
      ("line", Json.Int c.Cachesim.Config.line);
    ]

let get ~what k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing field %S" what k)

let as_str ~what = function
  | Json.Str s -> s
  | _ -> failwith (what ^ ": expected a string")

let as_int ~what = function
  | Json.Int i -> i
  | _ -> failwith (what ^ ": expected an integer")

let as_float ~what = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> failwith (what ^ ": expected a number")

let str_field ~what k j = as_str ~what (get ~what k j)
let int_field ~what k j = as_int ~what (get ~what k j)
let float_field ~what k j = as_float ~what (get ~what k j)

let config_of_json j =
  let what = "cache config" in
  Cachesim.Config.make
    ~name:(str_field ~what "name" j)
    ~associativity:(int_field ~what "associativity" j)
    ~sets:(int_field ~what "sets" j)
    ~line:(int_field ~what "line" j)

let verify_row_to_json (r : Verify.row) =
  Json.Obj
    [
      ("workload", Json.Str r.Verify.workload);
      ("cache", config_to_json r.Verify.cache);
      ("structure", Json.Str r.Verify.structure);
      ("simulated", Json.Float r.Verify.simulated);
      ("modeled", Json.Float r.Verify.modeled);
    ]

let verify_row_of_json j =
  let what = "verify row" in
  {
    Verify.workload = str_field ~what "workload" j;
    cache = config_of_json (get ~what "cache" j);
    structure = str_field ~what "structure" j;
    simulated = float_field ~what "simulated" j;
    modeled = float_field ~what "modeled" j;
  }

let level_row_to_json (r : Verify.level_row) =
  Json.Obj
    [
      ("workload", Json.Str r.Verify.l_workload);
      ("base_cache", config_to_json r.Verify.base_cache);
      ("level", Json.Int r.Verify.level);
      ("level_cache", config_to_json r.Verify.level_cache);
      ("structure", Json.Str r.Verify.l_structure);
      ("accesses", Json.Float r.Verify.accesses);
      ("misses", Json.Float r.Verify.misses);
      ("writebacks", Json.Float r.Verify.l_writebacks);
    ]

let level_row_of_json j =
  let what = "level row" in
  {
    Verify.l_workload = str_field ~what "workload" j;
    base_cache = config_of_json (get ~what "base_cache" j);
    level = int_field ~what "level" j;
    level_cache = config_of_json (get ~what "level_cache" j);
    l_structure = str_field ~what "structure" j;
    accesses = float_field ~what "accesses" j;
    misses = float_field ~what "misses" j;
    l_writebacks = float_field ~what "writebacks" j;
  }

let floats_to_json a =
  Json.List (Array.to_list (Array.map (fun v -> Json.Float v) a))

let floats_of_json ~what = function
  | Json.List vs -> Array.of_list (List.map (as_float ~what) vs)
  | _ -> failwith (what ^ ": expected a list of numbers")

let time_row_to_json (r : Verify.time_row) =
  Json.Obj
    [
      ("workload", Json.Str r.Verify.t_workload);
      ("base_cache", config_to_json r.Verify.t_base);
      ("level", Json.Int r.Verify.t_level);
      ("level_cache", config_to_json r.Verify.t_cache);
      ("structure", Json.Str r.Verify.t_structure);
      ("horizon", Json.Int r.Verify.t_horizon);
      ("bins", Json.Int r.Verify.t_bins);
      ("clean_time", Json.Float r.Verify.clean_time);
      ("dirty_time", Json.Float r.Verify.dirty_time);
      ("fills", Json.Float r.Verify.t_fills);
      ("evictions", Json.Float r.Verify.t_evictions);
      ("flushes", Json.Float r.Verify.t_flushes);
      ("window", floats_to_json r.Verify.window);
      ("window_dirty", floats_to_json r.Verify.window_dirty);
    ]

let time_row_of_json j =
  let what = "time row" in
  {
    Verify.t_workload = str_field ~what "workload" j;
    t_base = config_of_json (get ~what "base_cache" j);
    t_level = int_field ~what "level" j;
    t_cache = config_of_json (get ~what "level_cache" j);
    t_structure = str_field ~what "structure" j;
    t_horizon = int_field ~what "horizon" j;
    t_bins = int_field ~what "bins" j;
    clean_time = float_field ~what "clean_time" j;
    dirty_time = float_field ~what "dirty_time" j;
    t_fills = float_field ~what "fills" j;
    t_evictions = float_field ~what "evictions" j;
    t_flushes = float_field ~what "flushes" j;
    window = floats_of_json ~what (get ~what "window" j);
    window_dirty = floats_of_json ~what (get ~what "window_dirty" j);
  }

let profile_row_to_json (r : Profile.row) =
  Json.Obj
    [
      ("workload", Json.Str r.Profile.workload);
      ("cache", config_to_json r.Profile.cache);
      ("structure", Json.Str r.Profile.structure);
      ("dvf", Json.Float r.Profile.dvf);
      ("n_ha", Json.Float r.Profile.n_ha);
      ("bytes", Json.Int r.Profile.bytes);
      ("time", Json.Float r.Profile.time);
    ]

let profile_row_of_json j =
  let what = "profile row" in
  {
    Profile.workload = str_field ~what "workload" j;
    cache = config_of_json (get ~what "cache" j);
    structure = str_field ~what "structure" j;
    dvf = float_field ~what "dvf" j;
    n_ha = float_field ~what "n_ha" j;
    bytes = int_field ~what "bytes" j;
    time = float_field ~what "time" j;
  }

let sweep_row_to_json (r : Experiments.sweep_row) =
  Json.Obj
    [
      ("capacity", Json.Int r.Experiments.capacity);
      ("cache", config_to_json r.Experiments.sweep_cache);
      ("dvf_a", Json.Float r.Experiments.dvf_a);
      ("n_ha", Json.Float r.Experiments.n_ha);
      ( "sim_n_ha",
        match r.Experiments.sim_n_ha with
        | Some v -> Json.Float v
        | None -> Json.Null );
    ]

let sweep_row_of_json j =
  let what = "sweep row" in
  {
    Experiments.capacity = int_field ~what "capacity" j;
    sweep_cache = config_of_json (get ~what "cache" j);
    dvf_a = float_field ~what "dvf_a" j;
    n_ha = float_field ~what "n_ha" j;
    sim_n_ha =
      (match get ~what "sim_n_ha" j with
      | Json.Null -> None
      | v -> Some (as_float ~what v));
  }

let chaos_row_to_json (r : Chaos.row) =
  let lo, hi = r.Chaos.ci in
  Json.Obj
    [
      ("endpoint", Json.Str r.Chaos.endpoint);
      ("weight", Json.Float r.Chaos.weight);
      ("trials", Json.Int r.Chaos.trials);
      ("lost", Json.Int r.Chaos.lost);
      ("availability", Json.Float r.Chaos.availability);
      ("ci_lo", Json.Float lo);
      ("ci_hi", Json.Float hi);
      ("dvf", Json.Float r.Chaos.dvf);
    ]

let chaos_row_of_json j =
  let what = "chaos row" in
  {
    Chaos.endpoint = str_field ~what "endpoint" j;
    weight = float_field ~what "weight" j;
    trials = int_field ~what "trials" j;
    lost = int_field ~what "lost" j;
    availability = float_field ~what "availability" j;
    ci = (float_field ~what "ci_lo" j, float_field ~what "ci_hi" j);
    dvf = float_field ~what "dvf" j;
  }

let chaos_report_to_json (r : Chaos.report) =
  Json.Obj
    [
      ("workload", Json.Str r.Chaos.workload);
      ("label", Json.Str r.Chaos.label);
      ("kill_fraction", Json.Float r.Chaos.kill_fraction);
      ("killed_per_trial", Json.Int r.Chaos.killed_per_trial);
      ("components", Json.Int r.Chaos.components);
      ("seed", Json.Int r.Chaos.seed);
      ("requests_lost", Json.Float r.Chaos.requests_lost);
      ( "rho",
        match r.Chaos.rho with Some rho -> Json.Float rho | None -> Json.Null
      );
      ("rows", Json.List (List.map chaos_row_to_json r.Chaos.rows));
    ]

let chaos_report_of_result result =
  let what = "chaos result" in
  {
    Chaos.workload = str_field ~what "workload" result;
    label = str_field ~what "label" result;
    kill_fraction = float_field ~what "kill_fraction" result;
    killed_per_trial = int_field ~what "killed_per_trial" result;
    components = int_field ~what "components" result;
    seed = int_field ~what "seed" result;
    requests_lost = float_field ~what "requests_lost" result;
    rho =
      (match get ~what "rho" result with
      | Json.Null -> None
      | v -> Some (as_float ~what v));
    rows =
      (match get ~what "rows" result with
      | Json.List rows -> List.map chaos_row_of_json rows
      | _ -> failwith (what ^ ": \"rows\" is not a list"));
  }

(* {2 Tape file inspection}

   The payload behind [dvf tape info]: the on-disk header, provenance
   and layout summary.  Lives here so it shares the row-codec helpers —
   the JSON line round-trips exactly, and the rendered table is
   byte-stable for CI comparison. *)

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

let tape_info_to_json i =
  Json.Obj
    [
      ("version", Json.Int i.ti_version);
      ("workload", Json.Str i.ti_workload);
      ("size", Json.Str i.ti_size);
      ("seed", Json.Int i.ti_seed);
      ("chunk_events", Json.Int i.ti_chunk_events);
      ("events", Json.Int i.ti_events);
      ("chunks", Json.Int i.ti_chunks);
      ("regions", Json.Int i.ti_regions);
    ]

let tape_info_of_json j =
  let what = "tape info" in
  {
    ti_version = int_field ~what "version" j;
    ti_workload = str_field ~what "workload" j;
    ti_size = str_field ~what "size" j;
    ti_seed = int_field ~what "seed" j;
    ti_chunk_events = int_field ~what "chunk_events" j;
    ti_events = int_field ~what "events" j;
    ti_chunks = int_field ~what "chunks" j;
    ti_regions = int_field ~what "regions" j;
  }

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

let rows_field result = get ~what:"response result" "rows" result

let json_rows ~what of_row result =
  match rows_field result with
  | Json.List rows -> List.map of_row rows
  | _ -> failwith (what ^ ": \"rows\" is not a list")

let verify_rows_of_result = json_rows ~what:"verify result" verify_row_of_json
let level_rows_of_result = json_rows ~what:"levels result" level_row_of_json
let timed_rows_of_result = json_rows ~what:"timed result" time_row_of_json

let profile_rows_of_result =
  json_rows ~what:"dvf result" profile_row_of_json

let sweep_rows_of_result = json_rows ~what:"sweep result" sweep_row_of_json

(* {2 Request dispatch} *)

let requested_workloads t req =
  match Json.member "workload" req with
  | None | Some Json.Null -> t.workloads
  | Some (Json.Str name) -> [ find_workload t name ]
  | Some _ -> failwith "\"workload\" must be a string"

let required_workload t req =
  match Json.member "workload" req with
  | Some (Json.Str name) -> find_workload t name
  | Some _ -> failwith "\"workload\" must be a string"
  | None -> failwith "this op requires a \"workload\" field"

let rows_result to_row rows =
  Json.Obj [ ("rows", Json.List (List.map to_row rows)) ]

(* Size parameters are allocated in full, and [Out_of_memory] would take
   the daemon down: each is capped at about 100x its default. *)
let at_most what max n =
  if n > max then failwith (Printf.sprintf "%S must be at most %d" what max);
  n

(* Handlers run on a pool domain ([handle_batch]) or in the caller's
   ([handle_line]); either way the replay ops below fan their walks and
   row builds out over [t.pool] (a nested map when the handler runs on
   one of its workers).  With [jobs = 1] all of it runs in the calling
   domain. *)
let op_verify t req =
  rows_result verify_row_to_json
    (List.concat_map
       (fun w ->
         Verify.capture_rows ~telemetry:t.telemetry ~pool:t.pool
           ~replicas:t.replicas (capture_for t w))
       (requested_workloads t req))

let op_levels t req =
  let levels =
    match Json.member "levels" req with
    | Some (Json.Int l) -> l
    | Some _ -> failwith "\"levels\" must be an integer"
    | None -> 2
  in
  rows_result level_row_to_json
    (List.concat_map
       (fun w ->
         Verify.capture_level_rows ~telemetry:t.telemetry ~pool:t.pool
           ~replicas:t.replicas ~levels (capture_for t w))
       (requested_workloads t req))

let op_timed t req =
  let levels =
    match Json.member "levels" req with
    | Some (Json.Int l) -> l
    | Some _ -> failwith "\"levels\" must be an integer"
    | None -> 1
  in
  let bins =
    match Json.member "bins" req with
    | Some (Json.Int b) -> at_most "bins" 2000 b
    | Some _ -> failwith "\"bins\" must be an integer"
    | None -> Cachesim.Residency.default_bins
  in
  rows_result time_row_to_json
    (List.concat_map
       (fun w ->
         Verify.capture_time_rows ~telemetry:t.telemetry ~pool:t.pool
           ~replicas:t.replicas ~levels ~bins (capture_for t w))
       (requested_workloads t req))

let op_dvf t req =
  let caches = Cachesim.Config.profiling_set in
  rows_result profile_row_to_json
    (List.concat_map
       (fun w ->
         let instance = profiling_instance_for t w in
         List.concat_map
           (fun cache -> Profile.profile_instance ~cache instance)
           caches)
       (requested_workloads t req))

let op_sweep t req =
  let w = required_workload t req in
  let capacities =
    match Json.member "capacities" req with
    | None | Some Json.Null -> None
    | Some (Json.List vs) ->
        let cs = List.map (as_int ~what:"\"capacities\" entry") vs in
        (* a simulated sweep builds every cache at once: bound their sum *)
        let bound = at_most "capacities (each and summed)" (1 lsl 30) in
        ignore (List.fold_left (fun sum c -> bound (sum + max 0 (bound c))) 0 cs);
        Some cs
    | Some _ -> failwith "\"capacities\" must be a list of integers"
  in
  let simulate =
    match Json.member "simulate" req with
    | None -> true
    | Some (Json.Bool b) -> b
    | Some _ -> failwith "\"simulate\" must be a boolean"
  in
  let capture = capture_for t w in
  rows_result sweep_row_to_json
    (Experiments.cache_sweep ~jobs:1 ~telemetry:t.telemetry ?capacities
       ~simulate ~capture capture.Verify.instance)

(* Chaos runs take any workload with a topology: a served one, or a
   built-in service workload registered on demand — so the op works
   against a default server (which serves only the auto-registered
   kernels) without changing any other op's workload set. *)
let op_chaos t req =
  let w =
    match Json.member "workload" req with
    | None | Some Json.Null -> Service_workloads.workload ()
    | Some (Json.Str name) -> (
        let key = String.lowercase_ascii name in
        match
          List.find_opt
            (fun w -> String.lowercase_ascii w.Workload.name = key)
            t.workloads
        with
        | Some w -> w
        | None -> (
            match Service_workloads.find name with
            | Some w -> w
            | None -> find_workload t name))
    | Some _ -> failwith "\"workload\" must be a string"
  in
  let trials =
    match Json.member "trials" req with
    | None | Some Json.Null -> None
    | Some (Json.Int n) -> Some (at_most "trials" 100_000 n)
    | Some _ -> failwith "\"trials\" must be an integer"
  in
  let kill_fraction =
    match Json.member "kill_fraction" req with
    | None | Some Json.Null -> None
    | Some v -> Some (as_float ~what:"\"kill_fraction\"" v)
  in
  let seed =
    match Json.member "seed" req with
    | None | Some Json.Null -> None
    | Some (Json.Int s) -> Some s
    | Some _ -> failwith "\"seed\" must be an integer"
  in
  match
    Chaos.run ?seed ?trials ?kill_fraction ~telemetry:t.telemetry w
  with
  | Some report -> chaos_report_to_json report
  | None ->
      failwith
        (Printf.sprintf "workload %S has no service-graph topology"
           w.Workload.name)

let op_stats t =
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
    "ping"; "workloads"; "verify"; "levels"; "timed"; "dvf"; "sweep"; "chaos";
    "stats";
  ]

let dispatch t ~op req =
  match op with
  | "ping" -> Json.Obj [ ("pong", Json.Bool true) ]
  | "workloads" ->
      Json.Obj
        [
          ( "workloads",
            Json.List (List.map (fun n -> Json.Str n) (workload_names t)) );
        ]
  | "verify" -> op_verify t req
  | "levels" -> op_levels t req
  | "timed" -> op_timed t req
  | "dvf" -> op_dvf t req
  | "sweep" -> op_sweep t req
  | "chaos" -> op_chaos t req
  | "stats" -> op_stats t
  | other ->
      failwith
        (Printf.sprintf "unknown op %S (supported: %s)" other
           (String.concat ", " ops))

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
