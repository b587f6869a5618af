module P = Dvf_util.Parallel

let test_empty_input () =
  Alcotest.(check (list int)) "map_list []" [] (P.map_list ~jobs:4 Fun.id []);
  Alcotest.(check int) "map [||]" 0 (Array.length (P.map ~jobs:4 Fun.id [||]))

let test_order_preserved_jobs_gt_items () =
  let out = P.map_list ~jobs:8 (fun x -> x * x) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "squares" [ 1; 4; 9 ] out

let test_order_preserved_items_gt_jobs () =
  let xs = List.init 100 Fun.id in
  let out = P.map_list ~jobs:3 (fun x -> 2 * x) xs in
  Alcotest.(check (list int)) "doubles in order" (List.map (fun x -> 2 * x) xs)
    out

let test_jobs_one_is_serial () =
  (* jobs = 1 must not spawn domains: side effects happen in the calling
     domain, in order. *)
  let self = Domain.self () in
  let trace = ref [] in
  let out =
    P.map_list ~jobs:1
      (fun x ->
        Alcotest.(check bool) "same domain" true (Domain.self () = self);
        trace := x :: !trace;
        x + 1)
      [ 10; 20; 30 ]
  in
  Alcotest.(check (list int)) "results" [ 11; 21; 31 ] out;
  Alcotest.(check (list int)) "in-order effects" [ 10; 20; 30 ]
    (List.rev !trace)

let test_exception_propagation () =
  let completed = Atomic.make 0 in
  let run () =
    P.map_list ~jobs:4
      (fun x ->
        if x = 3 then failwith "job 3 exploded";
        Atomic.incr completed;
        x)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  (match run () with
  | _ -> Alcotest.fail "expected the job's exception"
  | exception Failure m -> Alcotest.(check string) "message" "job 3 exploded" m);
  (* All other jobs still ran to completion before the re-raise. *)
  Alcotest.(check int) "other jobs completed" 7 (Atomic.get completed)

let test_first_failure_in_input_order () =
  (* Two failing jobs: the one earliest in the input is re-raised no
     matter which worker finishes first. *)
  match
    P.map_list ~jobs:4
      (fun x -> if x >= 5 then failwith (Printf.sprintf "boom %d" x) else x)
      [ 0; 5; 1; 6 ]
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m -> Alcotest.(check string) "earliest job" "boom 5" m

let test_pool_reuse_and_shutdown () =
  let pool = P.Pool.create ~jobs:3 () in
  Alcotest.(check int) "size" 3 (P.Pool.size pool);
  let a = P.Pool.map_list pool (fun x -> x + 1) [ 1; 2; 3 ] in
  let b = P.Pool.map_list pool string_of_int [ 7; 8 ] in
  Alcotest.(check (list int)) "first map" [ 2; 3; 4 ] a;
  Alcotest.(check (list string)) "second map" [ "7"; "8" ] b;
  P.Pool.shutdown pool;
  match P.Pool.map_list pool Fun.id [ 1 ] with
  | _ -> Alcotest.fail "map after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_create_rejects_nonpositive_jobs () =
  match P.Pool.create ~jobs:0 () with
  | _ -> Alcotest.fail "jobs:0 must raise"
  | exception Invalid_argument _ -> ()

let test_with_pool_shuts_down_on_exception () =
  (* The worker domains must be joined even when the callback raises;
     if they weren't, the runtime would abort at exit with live domains. *)
  (match P.with_pool ~jobs:2 (fun _ -> failwith "escape") with
  | () -> Alcotest.fail "expected escape"
  | exception Failure m -> Alcotest.(check string) "escaped" "escape" m);
  Alcotest.(check pass) "pool cleaned up" () ()

(* A job may call [Pool.map] on the pool that runs it.  Two levels
   deep, with more outer jobs than workers, every nested map finishes
   and keeps input order, and an inner map re-raises its first failure
   in input order to the job that called it. *)
let test_nested_map () =
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          let map f xs = P.Pool.map_list pool f xs in
          let outer = List.init (3 * jobs) Fun.id in
          let out =
            map
              (fun x ->
                map
                  (fun y -> map (fun z -> (100 * x) + (10 * y) + z) [ 0; 1; 2 ])
                  [ 0; 1; 2; 3 ])
              outer
          in
          Alcotest.(check (list (list (list int))))
            (Printf.sprintf "two levels deep, jobs %d" jobs)
            (List.map
               (fun x ->
                 List.map
                   (fun y -> List.map (fun z -> (100 * x) + (10 * y) + z) [ 0; 1; 2 ])
                   [ 0; 1; 2; 3 ])
               outer)
            out;
          let caught =
            map
              (fun x ->
                match
                  map
                    (fun y ->
                      if y = 2 || y = 4 then
                        failwith (Printf.sprintf "inner %d.%d" x y)
                      else y)
                    [ 0; 1; 2; 3; 4 ]
                with
                | _ -> "no failure"
                | exception Failure m -> m)
              outer
          in
          Alcotest.(check (list string))
            (Printf.sprintf "first inner failure, jobs %d" jobs)
            (List.map (Printf.sprintf "inner %d.2") outer)
            caught))
    [ 2; 3 ]

(* A one-worker pool stays [Array.map] in the calling domain, nested
   maps included. *)
let test_nested_map_jobs_one () =
  let self = Domain.self () in
  let trace = ref [] in
  P.with_pool ~jobs:1 (fun pool ->
      let visit x =
        Alcotest.(check bool) "same domain" true (Domain.self () = self);
        trace := x :: !trace;
        x
      in
      let out =
        P.Pool.map pool
          (fun x -> P.Pool.map pool (fun y -> visit ((10 * x) + y)) [| 0; 1 |])
          [| 1; 2 |]
      in
      Alcotest.(check (array (array int))) "results"
        [| [| 10; 11 |]; [| 20; 21 |] |] out);
  Alcotest.(check (list int)) "in-order effects" [ 10; 11; 20; 21 ]
    (List.rev !trace)

(* The headline contract: a parallel verification sweep returns exactly
   the serial sweep's rows — same values (floats compared exactly), same
   order.  VM and MC are the two cheapest kernels. *)
let test_verify_run_all_deterministic () =
  let workloads = [ Core.Workloads.vm; Core.Workloads.mc ] in
  let serial = Core.Verify.run_all ~jobs:1 ~workloads () in
  let parallel = Core.Verify.run_all ~jobs:4 ~workloads () in
  Alcotest.(check int) "row count" (List.length serial) (List.length parallel);
  Alcotest.(check bool) "rows bit-identical" true (serial = parallel)

let test_experiments_sweeps_deterministic () =
  let serial = Core.Experiments.fig6 ~jobs:1 ~sizes:[ 100; 200 ] () in
  let parallel = Core.Experiments.fig6 ~jobs:4 ~sizes:[ 100; 200 ] () in
  Alcotest.(check bool) "fig6 rows identical" true (serial = parallel);
  let instance = Core.Workloads.verification_instance Core.Workloads.vm in
  let caps = [ 4096; 8192; 16384 ] in
  let s = Core.Experiments.cache_sweep ~jobs:1 ~capacities:caps instance in
  let p = Core.Experiments.cache_sweep ~jobs:4 ~capacities:caps instance in
  Alcotest.(check bool) "cache_sweep rows identical" true (s = p)

let suite =
  [
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "order preserved (jobs > items)" `Quick
      test_order_preserved_jobs_gt_items;
    Alcotest.test_case "order preserved (items > jobs)" `Quick
      test_order_preserved_items_gt_jobs;
    Alcotest.test_case "jobs=1 is the serial path" `Quick
      test_jobs_one_is_serial;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagation;
    Alcotest.test_case "first failure in input order" `Quick
      test_first_failure_in_input_order;
    Alcotest.test_case "pool reuse and shutdown" `Quick
      test_pool_reuse_and_shutdown;
    Alcotest.test_case "nonpositive jobs rejected" `Quick
      test_create_rejects_nonpositive_jobs;
    Alcotest.test_case "with_pool cleans up on exception" `Quick
      test_with_pool_shuts_down_on_exception;
    Alcotest.test_case "verify sweep deterministic" `Slow
      test_verify_run_all_deterministic;
    Alcotest.test_case "experiment sweeps deterministic" `Slow
      test_experiments_sweeps_deterministic;
    Alcotest.test_case "nested map on the same pool" `Quick test_nested_map;
    Alcotest.test_case "nested map at jobs=1 is serial" `Quick
      test_nested_map_jobs_one;
  ]
