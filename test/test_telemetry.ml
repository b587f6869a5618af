(* Telemetry collector: span nesting, counter/gauge semantics, the
   versioned JSON document, and the end-to-end guarantee that enabling
   metrics never changes computed results. *)

module T = Dvf_util.Telemetry
module J = Dvf_util.Json

(* A deterministic clock: every reading advances by [step] ns. *)
let fake_clock ?(step = 10L) () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t step;
    !t

(* --- the null collector --- *)

let test_null_is_inert () =
  Alcotest.(check bool) "disabled" false (T.enabled T.null);
  Alcotest.(check int64) "clock reads zero" 0L (T.now_ns T.null);
  T.add T.null "c";
  T.set_gauge T.null "g" 1.0;
  T.time_ns T.null "s" 5L;
  Alcotest.(check int) "counter stays zero" 0 (T.counter_value T.null "c");
  Alcotest.(check int64) "span stays zero" 0L (T.span_ns T.null "s");
  Alcotest.(check int) "span thunk runs" 41 (T.span T.null "s" (fun () -> 41))

(* --- span nesting --- *)

let test_span_nesting () =
  let t = T.create ~clock:(fake_clock ()) () in
  let result =
    T.span t "outer" (fun () ->
        T.span t "inner" (fun () -> ());
        T.span t "inner" (fun () -> ());
        "done")
  in
  Alcotest.(check string) "span returns thunk value" "done" result;
  Alcotest.(check int) "outer called once" 1 (T.span_calls t "outer");
  Alcotest.(check int) "inner nested under outer" 2
    (T.span_calls t "outer/inner");
  Alcotest.(check int) "no top-level inner" 0 (T.span_calls t "inner");
  (* Each inner span spends one clock step (start..stop); the outer span
     additionally covers both inner spans' readings. *)
  Alcotest.(check int64) "inner total" 20L (T.span_ns t "outer/inner");
  Alcotest.(check bool) "outer covers inner"
    true
    (Int64.compare (T.span_ns t "outer") (T.span_ns t "outer/inner") >= 0)

let test_span_exception_still_recorded () =
  let t = T.create ~clock:(fake_clock ()) () in
  (try T.span t "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  Alcotest.(check int) "raising span counted" 1 (T.span_calls t "boom");
  Alcotest.(check bool) "raising span timed" true
    (Int64.compare (T.span_ns t "boom") 0L > 0);
  (* The stack unwound: a following span is top-level, not under boom. *)
  T.span t "after" (fun () -> ());
  Alcotest.(check int) "stack unwound" 1 (T.span_calls t "after");
  Alcotest.(check int) "not nested under boom" 0 (T.span_calls t "boom/after")

(* --- counters and gauges --- *)

let test_counters_and_gauges () =
  let t = T.create ~clock:(fake_clock ()) () in
  T.add t "c";
  T.add t ~n:41 "c";
  Alcotest.(check int) "accumulates" 42 (T.counter_value t "c");
  Alcotest.(check int) "unknown counter" 0 (T.counter_value t "nope");
  T.time_ns t "s" 2_000_000_000L;
  T.add t ~n:10 "events";
  T.gauge_rate t ~name:"rate" ~counter:"events" ~span:"s";
  (match J.member "gauges" (T.to_json t) with
  | Some (J.Obj gauges) ->
      Alcotest.(check (float 1e-9)) "rate = count / seconds" 5.0
        (match List.assoc "rate" gauges with
        | J.Float f -> f
        | _ -> nan)
  | _ -> Alcotest.fail "gauges section missing");
  (* A zero-duration span must not produce an infinite gauge. *)
  T.add t ~n:3 "zero_count";
  T.gauge_rate t ~name:"bad" ~counter:"zero_count" ~span:"never";
  match J.member "gauges" (T.to_json t) with
  | Some (J.Obj gauges) ->
      Alcotest.(check bool) "no infinite gauge" false
        (List.mem_assoc "bad" gauges)
  | _ -> Alcotest.fail "gauges section missing"

(* --- JSON document --- *)

let test_json_roundtrip_and_validate () =
  let t = T.create ~clock:(fake_clock ()) () in
  T.span t "phase" (fun () -> T.add t ~n:9 "n");
  T.set_gauge t "g" 1.25;
  let doc = T.to_json t in
  (match T.validate doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "fresh document invalid: %s" m);
  (* Serialize, reparse, compare structurally. *)
  (match J.of_string (J.to_string doc) with
  | Ok reparsed ->
      Alcotest.(check bool) "round-trips" true (J.equal doc reparsed)
  | Error m -> Alcotest.failf "reparse failed: %s" m);
  (* Compact form round-trips too. *)
  (match J.of_string (J.to_string ~indent:false doc) with
  | Ok reparsed ->
      Alcotest.(check bool) "compact round-trips" true (J.equal doc reparsed)
  | Error m -> Alcotest.failf "compact reparse failed: %s" m);
  (* Validation rejects a wrong schema name and a missing section. *)
  let reject label doc =
    match T.validate doc with
    | Ok () -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  reject "wrong schema"
    (J.Obj
       [
         ("schema", J.Str "not-dvf"); ("schema_version", J.Int 1);
         ("spans", J.Obj []); ("counters", J.Obj []); ("gauges", J.Obj []);
       ]);
  reject "missing counters"
    (J.Obj
       [
         ("schema", J.Str "dvf-telemetry"); ("schema_version", J.Int 1);
         ("spans", J.Obj []); ("gauges", J.Obj []);
       ]);
  reject "non-object" (J.List [])

(* --- results are telemetry-invariant and schedule-invariant --- *)

let rows_testable =
  Alcotest.testable
    (fun ppf (r : Core.Verify.row) ->
      Format.fprintf ppf "%s/%s/%s: sim %.17g model %.17g" r.Core.Verify.workload
        r.Core.Verify.cache.Cachesim.Config.name r.Core.Verify.structure
        r.Core.Verify.simulated r.Core.Verify.modeled)
    (fun a b -> compare a b = 0)

let test_verify_rows_identical_with_metrics () =
  let workloads = [ Core.Workloads.vm; Core.Workloads.mc ] in
  let plain = Core.Verify.run_all ~jobs:1 ~workloads () in
  let serial_t = T.create () in
  let serial = Core.Verify.run_all ~jobs:1 ~telemetry:serial_t ~workloads () in
  let parallel_t = T.create () in
  let parallel =
    Core.Verify.run_all ~jobs:4 ~telemetry:parallel_t ~workloads ()
  in
  Alcotest.(check (list rows_testable))
    "telemetry does not change results" plain serial;
  Alcotest.(check (list rows_testable))
    "parallel rows bit-identical with metrics on" plain parallel;
  (* The deterministic telemetry fields agree across schedules too. *)
  List.iter
    (fun counter ->
      Alcotest.(check int)
        (counter ^ " schedule-independent")
        (T.counter_value serial_t counter)
        (T.counter_value parallel_t counter))
    [
      "tape/capture_events"; "tape/allocated_bytes"; "cache/accesses";
      "tape/replay_events";
    ];
  (* Each workload's walks run nested in its own pool task; the shard
     counters still add up to one walk per (workload x cache x shard),
     the shard width being 1 at jobs 1 and 2 at jobs 4 (two caches). *)
  let replayed = T.counter_value serial_t "tape/replay_events" in
  List.iter
    (fun (jobs, t, width) ->
      Alcotest.(check int)
        (Printf.sprintf "shard/tasks, jobs %d" jobs)
        (width * 2 * List.length workloads)
        (T.counter_value t "shard/tasks");
      Alcotest.(check int)
        (Printf.sprintf "shard/walked_events, jobs %d" jobs)
        (width * replayed)
        (T.counter_value t "shard/walked_events"))
    [ (1, serial_t, 1); (4, parallel_t, 2) ];
  (* And both documents validate. *)
  List.iter
    (fun t ->
      match T.validate (T.to_json t) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "document invalid: %s" m)
    [ serial_t; parallel_t ]

(* The simulated sweep's documented telemetry: one replay span per
   call, events x geometries replayed, and one walk task per shard. *)
let test_simulated_sweep_metrics () =
  let instance = Core.Workloads.verification_instance Core.Workloads.vm in
  let cap = Core.Verify.capture instance in
  let capacities = [ 8192; 65536; 4096 ] in
  let sweep ?telemetry jobs =
    Core.Experiments.cache_sweep ~jobs ?telemetry ~capacities ~simulate:true
      ~capture:cap instance
  in
  let plain = sweep 1 in
  List.iter
    (fun (jobs, width) ->
      let t = T.create () in
      Alcotest.(check bool)
        (Printf.sprintf "rows unchanged with metrics, jobs %d" jobs)
        true
        (sweep ~telemetry:t jobs = plain);
      Alcotest.(check int) "one replay span" 1
        (T.span_calls t "cache_sweep/VM/replay");
      Alcotest.(check int) "tape/replay_events = events x geometries"
        (Memtrace.Tape.length cap.Core.Verify.tape * List.length capacities)
        (T.counter_value t "tape/replay_events");
      Alcotest.(check int) "shard/tasks" width (T.counter_value t "shard/tasks");
      match J.member "gauges" (T.to_json t) with
      | Some gauges ->
          Alcotest.(check bool) "shard/count gauge" true
            (J.member "shard/count" gauges = Some (J.Float (float_of_int width)))
      | None -> Alcotest.fail "no gauges section")
    [ (1, 1); (2, 2) ]

let suite =
  [
    Alcotest.test_case "null collector is inert" `Quick test_null_is_inert;
    Alcotest.test_case "span nesting builds paths" `Quick test_span_nesting;
    Alcotest.test_case "span survives exceptions" `Quick
      test_span_exception_still_recorded;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "JSON round-trip and validation" `Quick
      test_json_roundtrip_and_validate;
    Alcotest.test_case "verify rows identical with metrics" `Slow
      test_verify_rows_identical_with_metrics;
    Alcotest.test_case "simulated sweep metrics" `Quick
      test_simulated_sweep_metrics;
  ]
