(* Service graphs: declaration validation, weight normalization,
   availability semantics (kill sets and reachability), and the
   determinism / spec agreement of the synthesized request traffic. *)

module Sg = Core.Service_graph

let expect_invalid ~needle f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument mentioning %S" needle
  | exception Invalid_argument msg ->
      let contains =
        let nl = String.length needle and hl = String.length msg in
        let rec go i =
          i + nl <= hl
          && (String.equal (String.sub msg i nl) needle || go (i + 1))
        in
        go 0
      in
      if not contains then
        Alcotest.failf "error %S does not mention %S" msg needle

let c ?kind ?calls name bytes = Sg.component ?kind ?calls ~name ~state_bytes:bytes ()

(* a -> b -> c, one endpoint on the far end. *)
let chain ?(weight = 1.0) () =
  Sg.make ~name:"chain" ~client:"a"
    ~components:
      [ c ~calls:[ "b" ] "a" 64; c ~calls:[ "c" ] "b" 64; c "c" 64 ]
    ~endpoints:[ Sg.endpoint ~name:"get" ~weight ~targets:[ "c" ] ]
    ()

(* --- validation --- *)

let test_rejects_cycle () =
  expect_invalid ~needle:"call cycle" (fun () ->
      Sg.make ~name:"g" ~client:"a"
        ~components:[ c ~calls:[ "b" ] "a" 64; c ~calls:[ "a" ] "b" 64 ]
        ~endpoints:[ Sg.endpoint ~name:"e" ~weight:1.0 ~targets:[ "b" ] ]
        ())

let test_rejects_self_call () =
  expect_invalid ~needle:"calls itself" (fun () ->
      Sg.make ~name:"g" ~client:"a"
        ~components:[ c ~calls:[ "a" ] "a" 64 ]
        ~endpoints:[ Sg.endpoint ~name:"e" ~weight:1.0 ~targets:[ "a" ] ]
        ())

let test_rejects_unknown_call_target () =
  expect_invalid ~needle:"unknown component" (fun () ->
      Sg.make ~name:"g" ~client:"a"
        ~components:[ c ~calls:[ "ghost" ] "a" 64 ]
        ~endpoints:[ Sg.endpoint ~name:"e" ~weight:1.0 ~targets:[ "a" ] ]
        ())

let test_rejects_unknown_endpoint_target () =
  expect_invalid ~needle:"targets unknown component" (fun () ->
      Sg.make ~name:"g" ~client:"a"
        ~components:[ c "a" 64 ]
        ~endpoints:[ Sg.endpoint ~name:"e" ~weight:1.0 ~targets:[ "ghost" ] ]
        ())

let test_rejects_duplicate_component () =
  expect_invalid ~needle:"duplicate component" (fun () ->
      Sg.make ~name:"g" ~client:"a"
        ~components:[ c "a" 64; c "a" 64 ]
        ~endpoints:[ Sg.endpoint ~name:"e" ~weight:1.0 ~targets:[ "a" ] ]
        ())

let test_rejects_unknown_client () =
  expect_invalid ~needle:"not a declared component" (fun () ->
      Sg.make ~name:"g" ~client:"ghost"
        ~components:[ c "a" 64 ]
        ~endpoints:[ Sg.endpoint ~name:"e" ~weight:1.0 ~targets:[ "a" ] ]
        ())

let test_rejects_empty_targets () =
  expect_invalid ~needle:"has no targets" (fun () ->
      Sg.make ~name:"g" ~client:"a"
        ~components:[ c "a" 64 ]
        ~endpoints:[ Sg.endpoint ~name:"e" ~weight:1.0 ~targets:[] ]
        ())

let test_rejects_bad_weight () =
  expect_invalid ~needle:"weight must be positive" (fun () -> chain ~weight:0.0 ());
  expect_invalid ~needle:"weight must be positive" (fun () ->
      chain ~weight:Float.nan ())

let test_rejects_unreachable_target () =
  (* d is declared but no call edge leads to it from the client. *)
  expect_invalid ~needle:"not reachable from client" (fun () ->
      Sg.make ~name:"g" ~client:"a"
        ~components:[ c ~calls:[ "b" ] "a" 64; c "b" 64; c "d" 64 ]
        ~endpoints:[ Sg.endpoint ~name:"e" ~weight:1.0 ~targets:[ "d" ] ]
        ())

let test_normalizes_weights () =
  let g =
    Sg.make ~name:"g" ~client:"a"
      ~components:[ c ~calls:[ "b" ] "a" 64; c "b" 64 ]
      ~endpoints:
        [
          Sg.endpoint ~name:"hot" ~weight:3.0 ~targets:[ "b" ];
          Sg.endpoint ~name:"cold" ~weight:1.0 ~targets:[ "a" ];
        ]
      ()
  in
  let weights = List.map (fun (e : Sg.endpoint) -> e.Sg.weight) g.Sg.endpoints in
  Alcotest.(check (list (float 1e-12))) "3:1 normalizes to 0.75/0.25"
    [ 0.75; 0.25 ] weights

(* --- availability --- *)

let test_nothing_killed_serves_everything () =
  let g = Sg.social_network in
  List.iter
    (fun e ->
      Alcotest.(check bool) (e ^ " served") true (Sg.available g ~killed:[] e))
    (Sg.endpoint_names g)

let test_killing_client_loses_everything () =
  let g = Sg.social_network in
  List.iter
    (fun e ->
      Alcotest.(check bool) (e ^ " lost") false
        (Sg.available g ~killed:[ "nginx-web-server" ] e))
    (Sg.endpoint_names g)

let test_kill_isolates_by_endpoint () =
  let g = Sg.social_network in
  let killed = [ "home-timeline-service" ] in
  Alcotest.(check bool) "home-timeline lost" false
    (Sg.available g ~killed "home-timeline");
  (* compose-post fans out into the timeline services, so it dies too. *)
  Alcotest.(check bool) "compose-post lost" false
    (Sg.available g ~killed "compose-post");
  (* user-timeline's path avoids the killed service entirely. *)
  Alcotest.(check bool) "user-timeline survives" true
    (Sg.available g ~killed "user-timeline")

let test_reachability_break_loses_endpoint () =
  (* In the chain a -> b -> c, killing b leaves target c alive but
     unreachable: the endpoint must count as lost. *)
  let g = chain () in
  Alcotest.(check bool) "served when whole" true
    (Sg.available g ~killed:[] "get");
  Alcotest.(check bool) "lost when the middle dies" false
    (Sg.available g ~killed:[ "b" ] "get")

let test_available_rejects_unknown_names () =
  let g = chain () in
  expect_invalid ~needle:"unknown endpoint" (fun () ->
      Sg.available g ~killed:[] "ghost");
  expect_invalid ~needle:"unknown component" (fun () ->
      Sg.available g ~killed:[ "ghost" ] "get")

let test_evaluator_matches_available () =
  let g = Sg.social_network in
  let eval = Sg.evaluator g in
  let names = Array.of_list (Sg.component_names g) in
  let endpoints = Sg.endpoint_names g in
  (* Every single-kill set, every endpoint: the index-based fast path
     agrees with the by-name reference. *)
  Array.iteri
    (fun ki killed_name ->
      List.iteri
        (fun ei e ->
          Alcotest.(check bool)
            (Printf.sprintf "kill %s / %s" killed_name e)
            (Sg.available g ~killed:[ killed_name ] e)
            (eval ~killed:[| ki |] ~endpoint:ei))
        endpoints)
    names

(* --- synthesized traffic --- *)

let capture ?seed ~requests g =
  let registry = Memtrace.Region.create () in
  let tape = Memtrace.Tape.create () in
  Sg.trace ?seed ~requests g registry tape;
  Memtrace.Tape.to_list tape

let test_trace_is_deterministic () =
  let g = Sg.social_network in
  let a = capture ~seed:7 ~requests:200 g in
  let b = capture ~seed:7 ~requests:200 g in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  Alcotest.(check bool) "same events" true (a = b);
  let other = capture ~seed:8 ~requests:200 g in
  Alcotest.(check bool) "seed changes the stream" true (a <> other)

let test_spec_structures_match_trace_regions () =
  let g = Sg.social_network in
  let spec = Sg.spec ~requests:200 g in
  let spec_names =
    List.map fst (Access_patterns.App_spec.structure_bytes spec)
  in
  let registry = Memtrace.Region.create () in
  Sg.trace ~requests:200 g registry (Memtrace.Tape.create ());
  let region_names =
    List.map
      (fun (r : Memtrace.Region.region) -> r.Memtrace.Region.name)
      (Memtrace.Region.regions registry)
  in
  Alcotest.(check (list string)) "one region per spec structure" spec_names
    region_names

let test_workload_flows_through_verify () =
  let w = Core.Service_workloads.workload () in
  let rows = Core.Verify.run_all ~workloads:[ w ] () in
  Alcotest.(check bool) "has rows" true (rows <> []);
  List.iter
    (fun (r : Core.Verify.row) ->
      Alcotest.(check bool)
        (r.Core.Verify.structure ^ " error finite")
        true
        (Float.is_finite (Core.Verify.error r)))
    rows

let suite =
  [
    Alcotest.test_case "rejects call cycles" `Quick test_rejects_cycle;
    Alcotest.test_case "rejects self-calls" `Quick test_rejects_self_call;
    Alcotest.test_case "rejects unknown call targets" `Quick
      test_rejects_unknown_call_target;
    Alcotest.test_case "rejects unknown endpoint targets" `Quick
      test_rejects_unknown_endpoint_target;
    Alcotest.test_case "rejects duplicate components" `Quick
      test_rejects_duplicate_component;
    Alcotest.test_case "rejects unknown client" `Quick
      test_rejects_unknown_client;
    Alcotest.test_case "rejects empty target lists" `Quick
      test_rejects_empty_targets;
    Alcotest.test_case "rejects bad weights" `Quick test_rejects_bad_weight;
    Alcotest.test_case "rejects unreachable targets" `Quick
      test_rejects_unreachable_target;
    Alcotest.test_case "normalizes endpoint weights" `Quick
      test_normalizes_weights;
    Alcotest.test_case "all alive serves every endpoint" `Quick
      test_nothing_killed_serves_everything;
    Alcotest.test_case "dead client loses every endpoint" `Quick
      test_killing_client_loses_everything;
    Alcotest.test_case "kills isolate by endpoint" `Quick
      test_kill_isolates_by_endpoint;
    Alcotest.test_case "reachability break loses the endpoint" `Quick
      test_reachability_break_loses_endpoint;
    Alcotest.test_case "available rejects unknown names" `Quick
      test_available_rejects_unknown_names;
    Alcotest.test_case "evaluator matches available" `Quick
      test_evaluator_matches_available;
    Alcotest.test_case "trace is deterministic" `Quick
      test_trace_is_deterministic;
    Alcotest.test_case "spec structures match trace regions" `Quick
      test_spec_structures_match_trace_regions;
    Alcotest.test_case "service workload flows through verify" `Quick
      test_workload_flows_through_verify;
  ]
