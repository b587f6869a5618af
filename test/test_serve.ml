(* Core.Serve and the dvf-query protocol.

   In-process tests drive handle_line/handle_batch directly and check
   the responses against the one-shot APIs they wrap (bit-identity of
   decoded rows).  The end-to-end test spawns the real `dvf serve`
   binary over pipes and asserts the daemon's verify rows equal the
   library's — the same comparison the CI smoke makes against `dvf
   verify` output. *)

module J = Dvf_util.Json

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let with_server ?(jobs = 2) ?(workloads = [ Core.Workloads.vm; Core.Workloads.mc ])
    f =
  let srv = Core.Serve.create ~jobs ~workloads () in
  Fun.protect ~finally:(fun () -> Core.Serve.shutdown srv) (fun () -> f srv)

let parse_exn line =
  match J.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad response %S: %s" line e

let field name = function
  | J.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> Alcotest.failf "response missing %S" name)
  | _ -> Alcotest.fail "response is not an object"

let respond srv request =
  match Core.Serve.handle_line srv request with
  | Some line -> parse_exn line
  | None -> Alcotest.failf "no response to %S" request

let check_envelope response =
  Alcotest.(check string) "schema" Core.Serve.schema
    (match field "schema" response with J.Str s -> s | _ -> "?");
  Alcotest.(check int) "schema_version" Core.Serve.schema_version
    (match field "schema_version" response with J.Int i -> i | _ -> -1)

let expect_ok response =
  check_envelope response;
  (match field "ok" response with
  | J.Bool true -> ()
  | _ -> Alcotest.failf "expected ok response, got %s" (J.to_string response));
  field "result" response

let expect_error response =
  check_envelope response;
  (match field "ok" response with
  | J.Bool false -> ()
  | _ -> Alcotest.failf "expected error response, got %s" (J.to_string response));
  match field "error" response with
  | J.Str msg -> msg
  | _ -> Alcotest.fail "error response without message"

(* --- basic protocol --- *)

let test_ping () =
  with_server (fun srv ->
      let response = respond srv {|{"id":42,"op":"ping"}|} in
      Alcotest.(check bool) "id echoed" true (field "id" response = J.Int 42);
      Alcotest.(check bool) "pong" true
        (field "pong" (expect_ok response) = J.Bool true))

let test_workloads () =
  with_server (fun srv ->
      let result = expect_ok (respond srv {|{"id":1,"op":"workloads"}|}) in
      match field "workloads" result with
      | J.List names ->
          Alcotest.(check (list string))
            "served names" [ "VM"; "MC" ]
            (List.map (function J.Str s -> s | _ -> "?") names)
      | _ -> Alcotest.fail "workloads is not a list")

let test_malformed_line () =
  with_server (fun srv ->
      let response = respond srv "this is not json" in
      let msg = expect_error response in
      Alcotest.(check bool) "id is null" true (field "id" response = J.Null);
      Alcotest.(check bool) "message mentions the parse" true
        (String.length msg > 0))

let test_unknown_op () =
  with_server (fun srv ->
      let msg = expect_error (respond srv {|{"id":1,"op":"bogus"}|}) in
      Alcotest.(check bool) "names the op" true (contains_substring msg "bogus"))

let test_unknown_workload () =
  with_server (fun srv ->
      let msg =
        expect_error (respond srv {|{"id":1,"op":"verify","workload":"nope"}|})
      in
      Alcotest.(check bool) "lists served workloads" true
        (contains_substring msg "VM"))

let test_blank_line_keepalive () =
  with_server (fun srv ->
      Alcotest.(check bool) "blank" true (Core.Serve.handle_line srv "" = None);
      Alcotest.(check bool) "whitespace" true
        (Core.Serve.handle_line srv "   \r" = None))

(* --- op results equal the one-shot APIs --- *)

let test_verify_rows_bit_identical () =
  with_server (fun srv ->
      let result =
        expect_ok (respond srv {|{"id":1,"op":"verify","workload":"VM"}|})
      in
      let served = Core.Serve.verify_rows_of_result result in
      let direct =
        Core.Verify.run_all ~jobs:1 ~workloads:[ Core.Workloads.vm ] ()
      in
      Alcotest.(check bool) "rows = run_all" true (served = direct))

let test_levels_rows_bit_identical () =
  with_server (fun srv ->
      let result =
        expect_ok
          (respond srv {|{"id":1,"op":"levels","workload":"VM","levels":2}|})
      in
      let served = Core.Serve.level_rows_of_result result in
      let direct =
        Core.Verify.run_all_levels ~jobs:1 ~levels:2
          ~workloads:[ Core.Workloads.vm ] ()
      in
      Alcotest.(check bool) "rows = run_all_levels" true (served = direct))

let test_dvf_rows_bit_identical () =
  with_server (fun srv ->
      let result =
        expect_ok (respond srv {|{"id":1,"op":"dvf","workload":"VM"}|})
      in
      let served = Core.Serve.profile_rows_of_result result in
      let direct =
        Core.Profile.run_all ~workloads:[ Core.Workloads.vm ] ()
      in
      Alcotest.(check bool) "rows = Profile.run_all" true (served = direct))

let test_sweep_rows_bit_identical () =
  with_server (fun srv ->
      let result =
        expect_ok
          (respond srv
             {|{"id":1,"op":"sweep","workload":"VM","capacities":[8192,65536]}|})
      in
      let served = Core.Serve.sweep_rows_of_result result in
      (* The daemon sweeps its warm verification capture (see the mli),
         so the reference sweep must run over the same instance. *)
      let instance = Core.Workloads.verification_instance Core.Workloads.vm in
      let capture = Core.Verify.capture instance in
      let direct =
        Core.Experiments.cache_sweep ~jobs:1 ~capacities:[ 8192; 65536 ]
          ~simulate:true ~capture instance
      in
      Alcotest.(check bool) "rows = cache_sweep" true (served = direct))

let test_timed_rows_bit_identical () =
  with_server (fun srv ->
      let result =
        expect_ok
          (respond srv
             {|{"id":1,"op":"timed","workload":"VM","levels":2,"bins":8}|})
      in
      let served = Core.Serve.timed_rows_of_result result in
      let direct =
        Core.Verify.run_all_timed ~jobs:1 ~levels:2 ~bins:8
          ~workloads:[ Core.Workloads.vm ] ()
      in
      Alcotest.(check bool) "rows = run_all_timed" true (served = direct))

(* [simulate: false] is the sweep's analytic-only path: every row's
   [sim_n_ha] travels as [null]. *)
let test_sweep_without_simulation () =
  with_server (fun srv ->
      let result =
        expect_ok
          (respond srv
             {|{"id":1,"op":"sweep","workload":"VM","capacities":[8192,65536],"simulate":false}|})
      in
      let served = Core.Serve.sweep_rows_of_result result in
      let direct =
        Core.Experiments.cache_sweep ~jobs:1 ~capacities:[ 8192; 65536 ]
          ~simulate:false
          (Core.Workloads.verification_instance Core.Workloads.vm)
      in
      Alcotest.(check int) "two rows" 2 (List.length served);
      Alcotest.(check bool) "no simulated totals" true
        (List.for_all
           (fun r -> r.Core.Experiments.sim_n_ha = None)
           served);
      Alcotest.(check bool) "rows = cache_sweep" true (served = direct))

(* [null] is the default for the parameters whose default is "unset"
   (the wrong-type fuzzing pins that the others reject it). *)
let test_null_parameters_default () =
  with_server (fun srv ->
      let result fields =
        J.to_string (expect_ok (respond srv (Printf.sprintf {|{"id":1,%s}|} fields)))
      in
      List.iter
        (fun (with_nulls, without) ->
          Alcotest.(check string) with_nulls (result without) (result with_nulls))
        [
          ({|"op":"verify","workload":null|}, {|"op":"verify"|});
          ( {|"op":"sweep","workload":"MC","capacities":null,"simulate":false|},
            {|"op":"sweep","workload":"MC","simulate":false|} );
          ( {|"op":"chaos","workload":null,"trials":null,"kill_fraction":null,"seed":null|},
            {|"op":"chaos"|} );
        ])

let test_sweep_requires_workload () =
  with_server (fun srv ->
      let msg = expect_error (respond srv {|{"id":1,"op":"sweep"}|}) in
      Alcotest.(check bool) "asks for a workload" true
        (contains_substring msg "workload"))

(* --- batches --- *)

let test_batch_order_and_equivalence () =
  with_server (fun srv ->
      let requests =
        [
          {|{"id":0,"op":"ping"}|};
          {|{"id":1,"op":"verify","workload":"VM"}|};
          {|{"id":2,"op":"workloads"}|};
          {|{"id":3,"op":"bogus"}|};
          {|{"id":4,"op":"dvf","workload":"MC"}|};
        ]
      in
      let batched = Core.Serve.handle_batch srv requests in
      Alcotest.(check int) "five responses" 5 (List.length batched);
      List.iteri
        (fun i line ->
          Alcotest.(check bool)
            (Printf.sprintf "id %d in order" i)
            true
            (field "id" (parse_exn line) = J.Int i))
        batched;
      (* A batch is just the serial map, faster. *)
      let serial = List.filter_map (Core.Serve.handle_line srv) requests in
      Alcotest.(check (list string)) "batch = serial" serial batched)

(* The replay ops fan their walks out over the server's pool, also when
   the request itself already runs on that pool: a batch of more heavy
   lines than domains answers exactly what one-at-a-time requests on a
   one-domain server answer. *)
let test_heavy_batch_on_pool () =
  let lines =
    List.concat_map
      (fun w ->
        List.map
          (fun op ->
            Printf.sprintf {|{"id":"%s %s","op":"%s","workload":"%s"}|} op w op
              w)
          [ "verify"; "levels"; "timed" ])
      [ "VM"; "MC" ]
    @ [ {|{"id":"levels 3","op":"levels","levels":3}|} ]
  in
  let one_at_a_time =
    with_server ~jobs:1 (fun srv ->
        List.filter_map (Core.Serve.handle_line srv) lines)
  in
  with_server ~jobs:2 (fun srv ->
      Alcotest.(check (list string))
        "jobs:2 batch = jobs:1 lines" one_at_a_time
        (Core.Serve.handle_batch srv lines))

(* A server keeps one flushed cache replica per geometry between
   requests; a reused replica must carry nothing over.  Each request of
   the sequence answers the same twice, and the default 2-level request
   answers like an explicit [levels: 2]. *)
let test_reused_replicas_carry_no_state () =
  with_server (fun srv ->
      let ask fields =
        J.to_string
          (expect_ok (respond srv (Printf.sprintf {|{"id":1,%s}|} fields)))
      in
      let round () =
        List.map ask
          [
            {|"op":"levels"|}; {|"op":"timed"|}; {|"op":"levels"|};
            {|"op":"levels","levels":3|}; {|"op":"levels","levels":2|};
          ]
      in
      let first = round () in
      Alcotest.(check (list string)) "second round = first" first (round ());
      List.iter
        (fun i ->
          Alcotest.(check string)
            (Printf.sprintf "request %d = request 0" i)
            (List.nth first 0) (List.nth first i))
        [ 2; 4 ])

(* --- row codecs round-trip --- *)

let test_row_codecs_roundtrip () =
  let rows = Core.Verify.run_all ~jobs:1 ~workloads:[ Core.Workloads.vm ] () in
  List.iter
    (fun row ->
      let back =
        Core.Serve.verify_row_of_json (Core.Serve.verify_row_to_json row)
      in
      Alcotest.(check bool) "verify row" true (row = back))
    rows;
  let profile = Core.Profile.run_all ~workloads:[ Core.Workloads.vm ] () in
  List.iter
    (fun row ->
      let back =
        Core.Serve.profile_row_of_json (Core.Serve.profile_row_to_json row)
      in
      Alcotest.(check bool) "profile row (exact floats)" true (row = back))
    profile

(* --- the wire format, pinned literally ---

   One hand-built value of each served type, with floats that print
   exactly: its compact encoding must equal the literal (key names, key
   order, [null] for [None], floats as [%.17g] with a ".0" marker), and
   decoding the literal must give the value back.  A renamed or
   reordered key would still round-trip and still render; only these
   literals catch it. *)

let wire_cache =
  Cachesim.Config.make ~name:"Small" ~associativity:4 ~sets:64 ~line:64

let wire_l2 =
  Cachesim.Config.make ~name:"L2" ~associativity:8 ~sets:512 ~line:64

let small_json = {|{"name":"Small","associativity":4,"sets":64,"line":64}|}
let l2_json = {|{"name":"L2","associativity":8,"sets":512,"line":64}|}

let check_wire name ~encode ~decode value literal =
  Alcotest.(check string)
    (name ^ ": encoding") literal
    (J.to_string ~indent:false (encode value));
  Alcotest.(check bool)
    (name ^ ": decode (encode x) = x") true
    (decode (encode value) = value);
  match J.of_string literal with
  | Ok j -> Alcotest.(check bool) (name ^ ": decode literal") true (decode j = value)
  | Error e -> Alcotest.failf "%s: literal does not parse: %s" name e

(* The row types the protocol only decodes as a response's ["rows"]. *)
let one_row name of_result j =
  match of_result (J.Obj [ ("rows", J.List [ j ]) ]) with
  | [ r ] -> r
  | rows -> Alcotest.failf "%s: %d rows decoded" name (List.length rows)

let parse_literal s =
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "literal does not parse: %s" e

let fails_with msg f =
  match f () with
  | _ -> Alcotest.failf "expected failure %S" msg
  | exception Failure m -> Alcotest.(check string) "error message" msg m

let test_wire_literals () =
  let open Core in
  check_wire "verify row" ~encode:Serve.verify_row_to_json
    ~decode:Serve.verify_row_of_json
    {
      Verify.workload = "VM";
      cache = wire_cache;
      structure = "A";
      simulated = 1.5;
      modeled = 50000.;
    }
    ({|{"workload":"VM","cache":|} ^ small_json
   ^ {|,"structure":"A","simulated":1.5,"modeled":50000.0}|});
  check_wire "level row" ~encode:Serve.level_row_to_json
    ~decode:(one_row "level row" Serve.level_rows_of_result)
    {
      Verify.l_workload = "MC";
      base_cache = wire_cache;
      level = 2;
      level_cache = wire_l2;
      l_structure = "B";
      accesses = 1000.;
      misses = 0.25;
      l_writebacks = 3.;
    }
    ({|{"workload":"MC","base_cache":|} ^ small_json ^ {|,"level":2,"level_cache":|}
   ^ l2_json
   ^ {|,"structure":"B","accesses":1000.0,"misses":0.25,"writebacks":3.0}|});
  check_wire "time row" ~encode:Serve.time_row_to_json
    ~decode:(one_row "time row" Serve.timed_rows_of_result)
    {
      Verify.t_workload = "VM";
      t_base = wire_cache;
      t_level = 1;
      t_cache = wire_cache;
      t_structure = "C";
      t_horizon = 400;
      t_bins = 2;
      clean_time = 1.5;
      dirty_time = 0.5;
      t_fills = 7.;
      t_evictions = 6.;
      t_flushes = 1.;
      window = [| 1.5; 50000. |];
      window_dirty = [||];
    }
    ({|{"workload":"VM","base_cache":|} ^ small_json ^ {|,"level":1,"level_cache":|}
   ^ small_json
   ^ {|,"structure":"C","horizon":400,"bins":2,"clean_time":1.5,"dirty_time":0.5,"fills":7.0,"evictions":6.0,"flushes":1.0,"window":[1.5,50000.0],"window_dirty":[]}|}
    );
  check_wire "profile row" ~encode:Serve.profile_row_to_json
    ~decode:Serve.profile_row_of_json
    {
      Profile.workload = "FT";
      cache = wire_l2;
      structure = "FT";
      dvf = 0.125;
      n_ha = 50000.;
      bytes = 4096;
      time = 2.5;
    }
    ({|{"workload":"FT","cache":|} ^ l2_json
   ^ {|,"structure":"FT","dvf":0.125,"n_ha":50000.0,"bytes":4096,"time":2.5}|});
  let sweep sim_n_ha =
    {
      Experiments.capacity = 16384;
      sweep_cache = wire_cache;
      dvf_a = 1.5;
      n_ha = 50000.;
      sim_n_ha;
    }
  in
  let sweep_json sim =
    {|{"capacity":16384,"cache":|} ^ small_json
    ^ {|,"dvf_a":1.5,"n_ha":50000.0,"sim_n_ha":|} ^ sim ^ "}"
  in
  let decode_sweep = one_row "sweep row" Serve.sweep_rows_of_result in
  check_wire "sweep row, simulated" ~encode:Serve.sweep_row_to_json
    ~decode:decode_sweep (sweep (Some 0.75)) (sweep_json "0.75");
  check_wire "sweep row, analytic only" ~encode:Serve.sweep_row_to_json
    ~decode:decode_sweep (sweep None) (sweep_json "null");
  let report rho =
    {
      Chaos.workload = "service_graph";
      label = "kill 1";
      kill_fraction = 0.25;
      killed_per_trial = 1;
      components = 4;
      seed = 42;
      rows =
        [
          {
            Chaos.endpoint = "GET /a";
            weight = 0.5;
            trials = 50;
            lost = 5;
            availability = 0.875;
            ci = (0.75, 0.9375);
            dvf = 1.5;
          };
        ];
      requests_lost = 0.0625;
      rho;
    }
  in
  let report_json rho =
    {|{"workload":"service_graph","label":"kill 1","kill_fraction":0.25,"killed_per_trial":1,"components":4,"seed":42,"requests_lost":0.0625,"rho":|}
    ^ rho
    ^ {|,"rows":[{"endpoint":"GET /a","weight":0.5,"trials":50,"lost":5,"availability":0.875,"ci_lo":0.75,"ci_hi":0.9375,"dvf":1.5}]}|}
  in
  check_wire "chaos report, rho" ~encode:Serve.chaos_report_to_json
    ~decode:Serve.chaos_report_of_result (report (Some (-0.5)))
    (report_json "-0.5");
  check_wire "chaos report, no rho" ~encode:Serve.chaos_report_to_json
    ~decode:Serve.chaos_report_of_result (report None) (report_json "null");
  check_wire "tape info" ~encode:Serve.tape_info_to_json
    ~decode:Serve.tape_info_of_json
    {
      Serve.ti_version = 4;
      ti_workload = "VM";
      ti_size = "n=64";
      ti_seed = 3;
      ti_chunk_events = 64;
      ti_events = 200;
      ti_chunks = 4;
      ti_regions = 2;
    }
    {|{"version":4,"workload":"VM","size":"n=64","seed":3,"chunk_events":64,"events":200,"chunks":4,"regions":2}|};
  (* A float field accepts an integer: another encoder may print a
     whole float without a fraction. *)
  Alcotest.(check bool) "integer in a float field" true
    (decode_sweep
       (parse_literal
          ({|{"capacity":16384,"cache":|} ^ small_json
         ^ {|,"dvf_a":1.5,"n_ha":50000,"sim_n_ha":null}|}))
    = sweep None);
  (* Decoders name the row type and the missing key. *)
  fails_with {|verify row: missing field "modeled"|} (fun () ->
      Serve.verify_row_of_json
        (parse_literal
           ({|{"workload":"VM","cache":|} ^ small_json
          ^ {|,"structure":"A","simulated":1.5}|})));
  fails_with {|cache config: missing field "line"|} (fun () ->
      Serve.verify_row_of_json
        (parse_literal
           {|{"workload":"VM","cache":{"name":"Small","associativity":4,"sets":64},"structure":"A","simulated":1.5,"modeled":2.0}|}))

(* --- tape info (the dvf tape info payload) --- *)

let test_tape_info () =
  let path = Printf.sprintf "serve_tape_info_%d.dvftape" (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let module Mt = Memtrace in
      let registry = Mt.Region.create () in
      ignore (Mt.Region.register registry ~name:"A" ~elements:256 ~elem_size:8);
      ignore (Mt.Region.register registry ~name:"B" ~elements:64 ~elem_size:4);
      let tape = Mt.Tape.create ~chunk_events:64 () in
      for i = 0 to 199 do
        Mt.Tape.append tape ~owner:1 ~write:false ~addr:(i * 32) ~size:4
      done;
      Mt.Tape_io.save ~path
        ~meta:{ Mt.Tape_io.workload = "VM"; size = "n=64"; seed = 3 }
        ~registry ~tape;
      let info =
        match Core.Serve.tape_info_of_file path with
        | Ok i -> i
        | Error e ->
            Alcotest.failf "tape_info_of_file: %s" (Mt.Tape_io.error_to_string e)
      in
      Alcotest.(check int) "version" Mt.Tape_io.format_version
        info.Core.Serve.ti_version;
      Alcotest.(check string) "workload" "VM" info.Core.Serve.ti_workload;
      Alcotest.(check int) "events" 200 info.Core.Serve.ti_events;
      Alcotest.(check int) "chunks" 4 info.Core.Serve.ti_chunks;
      Alcotest.(check int) "regions" 2 info.Core.Serve.ti_regions;
      Alcotest.(check int) "chunk capacity" 64 info.Core.Serve.ti_chunk_events;
      Alcotest.(check int) "seed" 3 info.Core.Serve.ti_seed;
      (* The codec round-trips exactly and the JSON line is stable. *)
      let json = Core.Serve.tape_info_to_json info in
      Alcotest.(check bool) "json round-trip" true
        (Core.Serve.tape_info_of_json json = info);
      Alcotest.(check string) "json encoding stable"
        (J.to_string ~indent:false json)
        (J.to_string ~indent:false (Core.Serve.tape_info_to_json info));
      (* The rendered table is byte-stable across loads of the file. *)
      let render i = Dvf_util.Table.render (Core.Serve.tape_info_table i) in
      match Core.Serve.tape_info_of_file path with
      | Ok again -> Alcotest.(check string) "table stable" (render info) (render again)
      | Error e ->
          Alcotest.failf "second load: %s" (Mt.Tape_io.error_to_string e))

(* --- Json.parse_line (the protocol's framing helper) --- *)

let test_json_parse_line () =
  let ok = function Ok v -> v | Error e -> Alcotest.failf "parse_line: %s" e in
  Alcotest.(check bool) "blank is None" true (ok (J.parse_line "") = None);
  Alcotest.(check bool) "whitespace is None" true
    (ok (J.parse_line " \t ") = None);
  Alcotest.(check bool) "CR stripped" true
    (ok (J.parse_line "{\"a\":1}\r") = Some (J.Obj [ ("a", J.Int 1) ]));
  Alcotest.(check bool) "document parsed" true
    (ok (J.parse_line "[1,2]") = Some (J.List [ J.Int 1; J.Int 2 ]));
  (match J.parse_line "{\"a\":1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match J.parse_line "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

(* --- fuzzing untrusted request lines ---

   Every line a client sends is untrusted.  Four generators — random
   bytes, truncations of valid requests, parameters of the wrong JSON
   type and out-of-range parameter values — each produce lines the
   server must refuse: exactly one reply per non-blank line, a
   well-formed [dvf-query] envelope with [ok:false] and an error
   string, no exception, and a server that still answers [ping]
   afterwards. *)

(* A request line never holds a newline: the transport splits on it. *)
let gen_bytes =
  QCheck.Gen.(
    map
      (String.map (fun c -> if c = '\n' then ' ' else c))
      (string_size ~gen:char (int_range 0 80)))

let valid_requests =
  [
    {|{"id":1,"op":"ping"}|};
    {|{"id":2,"op":"verify","workload":"VM"}|};
    {|{"id":3,"op":"levels","workload":"VM","levels":2}|};
    {|{"id":4,"op":"timed","workload":"VM","levels":1,"bins":4}|};
    {|{"id":5,"op":"sweep","workload":"VM","capacities":[4096,8192]}|};
    {|{"id":6,"op":"chaos","trials":10,"kill_fraction":0.25}|};
  ]

(* A proper prefix of a one-object document is never a document. *)
let gen_truncation =
  QCheck.Gen.(
    oneofl valid_requests >>= fun r ->
    map (fun n -> String.sub r 0 n) (int_range 0 (String.length r - 1)))

let request op fields =
  J.to_string ~indent:false
    (J.Obj ([ ("id", J.Int 7); ("op", J.Str op) ] @ fields))

let not_int =
  [ J.Str "2"; J.Float 2.5; J.Bool true; J.List [ J.Int 2 ]; J.Obj [] ]
let not_number = [ J.Str "0.5"; J.Bool false; J.List []; J.Obj [] ]

(* Each op reads the parameter it is paired with, so every line is
   malformed; "workload" pins the served kernel where an op takes one. *)
let gen_wrong_type =
  let vm = ("workload", J.Str "VM") in
  let case op param values extra =
    QCheck.Gen.map
      (fun v -> request op ((param, v) :: extra))
      (QCheck.Gen.oneofl values)
  in
  QCheck.Gen.oneof
    [
      case "levels" "levels" (J.Null :: not_int) [ vm ];
      case "timed" "levels" (J.Null :: not_int) [ vm ];
      case "timed" "bins" (J.Null :: not_int) [ vm ];
      case "sweep" "capacities"
        [
          J.Int 4096; J.Str "4096"; J.List [ J.Str "x" ];
          J.List [ J.Float 4096. ];
        ]
        [ vm ];
      case "sweep" "simulate" [ J.Str "yes"; J.Int 1; J.Null ] [ vm ];
      case "chaos" "trials" not_int [];
      case "chaos" "kill_fraction" not_number [];
      case "chaos" "seed" not_int [];
      case "verify" "workload" [ J.Int 1; J.Bool true; J.List [] ] [];
      QCheck.Gen.map
        (fun v ->
          J.to_string ~indent:false (J.Obj [ ("id", J.Int 7); ("op", v) ]))
        (QCheck.Gen.oneofl (J.Null :: not_int));
    ]

(* Values every validator rejects: hierarchies have 1..3 levels, a
   capacity must give a power-of-two set count of 8-way 64-B lines, the
   capacities be at most 1 GiB each and in sum, bins lie in 1..2000, trials in 1..100000, and kill
   fractions in [0, 1].  Rejected before any work is done, so the cases
   stay cheap — above all the well-typed but huge sizes, which would
   otherwise be allocated in full. *)
let gen_out_of_range =
  let open QCheck.Gen in
  let vm = ("workload", J.Str "VM") in
  let bad_levels = oneof [ int_range (-3) 0; int_range 4 1000 ] in
  let above bound = oneof [ int_range (bound + 1) max_int; return max_int ] in
  let bad_capacity =
    oneof
      [
        int_range (-100_000) 511;
        map2
          (fun k r ->
            let k = if k land (k - 1) = 0 then k + 1 else k in
            (512 * k) + r)
          (int_range 3 1000) (int_range 0 511);
        (* valid geometries (power-of-two set counts) above 1 GiB *)
        map (fun k -> 1 lsl k) (int_range 31 62);
        above (1 lsl 30);
      ]
  in
  oneof
    [
      map (fun l -> request "levels" [ vm; ("levels", J.Int l) ]) bad_levels;
      map (fun l -> request "timed" [ vm; ("levels", J.Int l) ]) bad_levels;
      map
        (fun b -> request "timed" [ vm; ("bins", J.Int b) ])
        (oneof [ int_range (-1000) 0; above 2000 ]);
      map
        (fun c ->
          request "sweep"
            [ vm; ("capacities", J.List [ J.Int 4096; J.Int c ]) ])
        bad_capacity;
      (* many valid geometries, each within the bound, over 1 GiB in sum *)
      map2
        (fun k extra ->
          let c = 1 lsl k in
          let n = (1 lsl (30 - k)) + extra in
          request "sweep"
            [ vm; ("capacities", J.List (List.init n (fun _ -> J.Int c))) ])
        (int_range 24 30) (int_range 1 20);
      map
        (fun n -> request "chaos" [ ("trials", J.Int n) ])
        (oneof [ int_range (-1000) 0; above 100_000 ]);
      map
        (fun f -> request "chaos" [ ("kill_fraction", J.Float f) ])
        (oneof [ float_range (-1000.) (-0.001); float_range 1.001 1000. ]);
      map
        (fun op -> request op [ ("workload", J.Str "NOPE") ])
        (oneofl [ "verify"; "levels"; "timed"; "dvf"; "sweep"; "chaos" ]);
    ]

let refuses srv line =
  let reply =
    match Core.Serve.handle_line srv line with
    | reply -> reply
    | exception e ->
        QCheck.Test.fail_reportf "exception %s escaped" (Printexc.to_string e)
  in
  (match (J.parse_line line, reply) with
  | Ok None, None -> ()
  | Ok None, Some _ -> QCheck.Test.fail_report "reply to a blank line"
  | _, None -> QCheck.Test.fail_report "no reply to a non-blank line"
  | _, Some reply -> (
      match J.of_string reply with
      | Error e -> QCheck.Test.fail_reportf "reply does not parse: %s" e
      | Ok r -> (
          if J.member "schema" r <> Some (J.Str Core.Serve.schema) then
            QCheck.Test.fail_reportf "bad schema in %s" reply;
          match (J.member "ok" r, J.member "error" r) with
          | Some (J.Bool false), Some (J.Str msg) when msg <> "" -> ()
          | _ -> QCheck.Test.fail_reportf "not a structured error: %s" reply)));
  (match Core.Serve.handle_line srv {|{"id":0,"op":"ping"}|} with
  | Some pong when contains_substring pong {|"pong":true|} -> ()
  | _ -> QCheck.Test.fail_report "ping no longer answers");
  true

let test_fuzz_serve () =
  with_server ~jobs:1 ~workloads:[ Core.Workloads.vm ] (fun srv ->
      List.iter
        (fun (name, count, gen) ->
          QCheck.Test.check_exn
            (QCheck.Test.make ~count ~name
               (QCheck.make ~print:(Printf.sprintf "%S") gen)
               (refuses srv)))
        [
          ("random bytes", 300, gen_bytes);
          ("truncated requests", 200, gen_truncation);
          ("wrong-typed parameters", 200, gen_wrong_type);
          ("out-of-range parameters", 200, gen_out_of_range);
        ])

let test_fuzz_parse_line () =
  let never_raises =
    QCheck.Test.make ~count:1000 ~name:"Json.parse_line total"
      (QCheck.make ~print:(Printf.sprintf "%S")
         QCheck.Gen.(
           oneof [ string_size ~gen:char (int_range 0 80); gen_truncation ]))
      (fun line ->
        match J.parse_line line with
        | Ok None ->
            String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line
        | Ok (Some _) | Error _ -> true
        | exception e ->
            QCheck.Test.fail_reportf "exception %s" (Printexc.to_string e))
  in
  let truncations_rejected =
    QCheck.Test.make ~count:300 ~name:"truncated requests are errors"
      (QCheck.make ~print:(Printf.sprintf "%S") gen_truncation)
      (fun line ->
        match J.parse_line line with
        | Ok None -> line = ""
        | Ok (Some _) -> false
        | Error _ -> true)
  in
  List.iter QCheck.Test.check_exn [ never_raises; truncations_rejected ]

(* --- end to end: the real binary over pipes --- *)

let test_end_to_end_binary () =
  let exe = "../bin/dvf_cli.exe" in
  if not (Sys.file_exists exe) then
    Alcotest.skip ()
  else begin
    let req_read, req_write = Unix.pipe ~cloexec:false () in
    let resp_read, resp_write = Unix.pipe ~cloexec:false () in
    let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe
        [| exe; "serve"; "-j"; "1"; "VM" |]
        req_read resp_write dev_null
    in
    Unix.close req_read;
    Unix.close resp_write;
    Unix.close dev_null;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close req_write with Unix.Unix_error _ -> ());
        (try Unix.close resp_read with Unix.Unix_error _ -> ());
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        let requests =
          {|{"id":1,"op":"ping"}
{"id":2,"op":"verify","workload":"VM"}
|}
        in
        let len = String.length requests in
        Alcotest.(check int) "request written" len
          (Unix.write_substring req_write requests 0 len);
        (* Closing stdin after the requests lets the daemon exit cleanly
           once it has answered. *)
        Unix.close req_write;
        let ic = Unix.in_channel_of_descr resp_read in
        let ping = parse_exn (input_line ic) in
        Alcotest.(check bool) "daemon pong" true
          (field "pong" (expect_ok ping) = J.Bool true);
        let verify = parse_exn (input_line ic) in
        let served = Core.Serve.verify_rows_of_result (expect_ok verify) in
        let direct =
          Core.Verify.run_all ~jobs:1 ~workloads:[ Core.Workloads.vm ] ()
        in
        Alcotest.(check bool) "daemon rows = library rows" true
          (served = direct))
  end

(* A socket client that hangs up before its reply must cost the daemon
   that client only: the write fails with EPIPE (not a fatal SIGPIPE)
   and the next client is served. *)
let test_socket_client_hangs_up () =
  let exe = "../bin/dvf_cli.exe" in
  if not (Sys.file_exists exe) then
    Alcotest.skip ()
  else begin
    let path = Printf.sprintf "serve_hangup_%d.sock" (Unix.getpid ()) in
    let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process exe
        [| exe; "serve"; "-j"; "1"; "--socket"; path; "VM" |]
        dev_null dev_null dev_null
    in
    Unix.close dev_null;
    (* Writing to a dead daemon must fail this test, not kill the runner. *)
    let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigpipe old_sigpipe;
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let connect () =
          let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect sock (Unix.ADDR_UNIX path) with
          | () -> Some sock
          | exception Unix.Unix_error _ ->
              Unix.close sock;
              None
        in
        let send sock line =
          let line = line ^ "\n" in
          ignore (Unix.write_substring sock line 0 (String.length line))
        in
        (* The daemon binds its socket once the workload is warm. *)
        let rec wait_ready tries =
          match connect () with
          | Some sock -> sock
          | None when tries > 0 ->
              Unix.sleepf 0.05;
              wait_ready (tries - 1)
          | None -> Alcotest.fail "daemon never started listening"
        in
        let early = wait_ready 1200 in
        send early {|{"id":1,"op":"verify","workload":"VM"}|};
        Unix.close early;
        let reply =
          match connect () with
          | None -> Error "connection refused"
          | Some sock -> (
              let ic = Unix.in_channel_of_descr sock in
              Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
              match
                send sock {|{"id":2,"op":"ping"}|};
                input_line ic
              with
              | line -> Ok line
              | exception (Unix.Unix_error _ | Sys_error _ | End_of_file) ->
                  Error "connection lost")
        in
        match reply with
        | Error why ->
            Alcotest.failf "daemon died after a client hung up early (%s)" why
        | Ok line ->
            Alcotest.(check bool) "second client pong" true
              (field "pong" (expect_ok (parse_exn line)) = J.Bool true))
  end

let suite =
  [
    Alcotest.test_case "ping" `Quick test_ping;
    Alcotest.test_case "workloads" `Quick test_workloads;
    Alcotest.test_case "malformed line" `Quick test_malformed_line;
    Alcotest.test_case "unknown op" `Quick test_unknown_op;
    Alcotest.test_case "unknown workload" `Quick test_unknown_workload;
    Alcotest.test_case "blank line keep-alive" `Quick test_blank_line_keepalive;
    Alcotest.test_case "verify rows bit-identical" `Quick
      test_verify_rows_bit_identical;
    Alcotest.test_case "levels rows bit-identical" `Quick
      test_levels_rows_bit_identical;
    Alcotest.test_case "dvf rows bit-identical" `Quick
      test_dvf_rows_bit_identical;
    Alcotest.test_case "sweep rows bit-identical" `Quick
      test_sweep_rows_bit_identical;
    Alcotest.test_case "timed rows bit-identical" `Quick
      test_timed_rows_bit_identical;
    Alcotest.test_case "sweep without simulation" `Quick
      test_sweep_without_simulation;
    Alcotest.test_case "null parameters take their defaults" `Quick
      test_null_parameters_default;
    Alcotest.test_case "sweep requires a workload" `Quick
      test_sweep_requires_workload;
    Alcotest.test_case "batch order and equivalence" `Quick
      test_batch_order_and_equivalence;
    Alcotest.test_case "row codecs round-trip" `Quick test_row_codecs_roundtrip;
    Alcotest.test_case "wire format literals" `Quick test_wire_literals;
    Alcotest.test_case "tape info" `Quick test_tape_info;
    Alcotest.test_case "Json.parse_line" `Quick test_json_parse_line;
    Alcotest.test_case "fuzz: Json.parse_line" `Quick test_fuzz_parse_line;
    Alcotest.test_case "fuzz: malformed lines get structured errors" `Quick
      test_fuzz_serve;
    Alcotest.test_case "end-to-end: dvf serve over pipes" `Quick
      test_end_to_end_binary;
    Alcotest.test_case "socket client hanging up early" `Quick
      test_socket_client_hangs_up;
    Alcotest.test_case "heavy batch fans out on the pool" `Quick
      test_heavy_batch_on_pool;
    Alcotest.test_case "reused replicas carry no state" `Quick
      test_reused_replicas_carry_no_state;
  ]
