module T = Access_patterns.Template
module L = Access_patterns.Template_lang

let small_cache = Cachesim.Config.small_verification (* 256 blocks of 32 B *)

(* --- Template (block-trace algorithm) --- *)

let test_first_touch_counts () =
  (* All-distinct trace: every access is a compulsory miss. *)
  let misses = T.misses_on_blocks ~capacity:4 ~distance:`Stack [| 1; 2; 3; 4; 5 |] in
  Alcotest.(check int) "compulsory" 5 misses

let test_reuse_within_capacity_hits () =
  (* Re-touch within capacity: second round all hits with capacity 3. *)
  let misses = T.misses_on_blocks ~capacity:3 ~distance:`Stack [| 1; 2; 3; 1; 2; 3 |] in
  Alcotest.(check int) "3 cold only" 3 misses

let test_reuse_beyond_capacity_misses () =
  (* Cyclic sweep over 4 blocks with capacity 3 thrashes: every access
     misses (the classic LRU worst case). *)
  let trace = Array.init 12 (fun i -> i mod 4) in
  let misses = T.misses_on_blocks ~capacity:3 ~distance:`Stack trace in
  Alcotest.(check int) "all miss" 12 misses

let test_stack_distance_ignores_duplicates () =
  (* 1 2 2 2 1: raw distance of the final 1 is 3, but only one distinct
     block intervenes, so with capacity 2 it hits under `Stack and misses
     under `Raw. *)
  let trace = [| 1; 2; 2; 2; 1 |] in
  Alcotest.(check int) "stack" 2 (T.misses_on_blocks ~capacity:2 ~distance:`Stack trace);
  Alcotest.(check int) "raw" 3 (T.misses_on_blocks ~capacity:2 ~distance:`Raw trace)

let test_empty_trace () =
  Alcotest.(check int) "empty" 0 (T.misses_on_blocks ~capacity:4 ~distance:`Stack [||])

let test_block_trace_lowering () =
  (* 16-byte elements over 32-byte lines: elements 0,1 share block 0;
     element 2 is in block 1. *)
  let t = T.make ~elem_size:16 [| 0; 1; 2 |] in
  Alcotest.(check (array int)) "blocks" [| 0; 0; 1 |]
    (fst (T.block_trace ~line:32 t));
  (* 64-byte elements span two 32-byte lines each; write flags follow the
     element. *)
  let t2 = T.make ~writes:[| false; true |] ~elem_size:64 [| 0; 1 |] in
  let blocks, writes = T.block_trace ~line:32 t2 in
  Alcotest.(check (array int)) "spanning" [| 0; 1; 2; 3 |] blocks;
  Alcotest.(check (array bool)) "write flags" [| false; false; true; true |] writes;
  (* 24-byte elements over 32-byte lines: the line does not divide the
     element, so element 1 (bytes 24..47) spans blocks 0 and 1 and
     element 2 (bytes 48..71) spans blocks 1 and 2. *)
  let t3 =
    T.make ~writes:[| false; true; false; true |] ~elem_size:24 [| 0; 1; 2; 4 |]
  in
  let blocks, writes = T.block_trace ~line:32 t3 in
  Alcotest.(check (array int)) "straddling" [| 0; 0; 1; 1; 2; 3 |] blocks;
  Alcotest.(check (array bool)) "straddling write flags"
    [| false; true; true; false; false; true |] writes

let test_index_overflow_rejected () =
  (* (index + 1) * elem_size must fit in an int: at elem 8 the largest
     index is max_int / 8 - 1.  Index 2^61 - 1 would wrap to block 0
     and merge with element 0. *)
  let top = (max_int / 8) - 1 in
  ignore (T.make ~elem_size:8 [| 0; top |]);
  Alcotest.check_raises "past the bound"
    (Invalid_argument "Template.make: element index too large") (fun () ->
      ignore (T.make ~elem_size:8 [| 0; top + 1 |]));
  Alcotest.check_raises "wrapping index"
    (Invalid_argument "Template.make: element index too large") (fun () ->
      ignore (T.make ~elem_size:8 [| 0; 2305843009213693951 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Template.make: negative element index") (fun () ->
      ignore (T.make ~elem_size:8 [| 0; -1 |]))

let test_available_blocks_ratio () =
  let t = T.make ~cache_ratio:0.5 ~elem_size:8 [| 0 |] in
  Alcotest.(check int) "half the cache" 128 (T.available_blocks ~cache:small_cache t)

(* Compare the template model against the cache simulator on the same
   reference stream.  The model is fully associative; with a trace confined
   to few blocks per set the LRU simulation agrees closely. *)
let simulate_elements ~cache ~elem_size refs =
  let c = Cachesim.Cache.create cache in
  Array.iter
    (fun e ->
      Cachesim.Cache.access c ~owner:1 ~write:false ~addr:(e * elem_size)
        ~size:elem_size)
    refs;
  let s = Cachesim.Stats.owner_counters (Cachesim.Cache.stats c) 1 in
  s.Cachesim.Stats.misses

let test_model_matches_simulation_sequential () =
  (* Repeated sweep over a structure larger than the cache. *)
  let n = 600 (* 600 * 32 B = 18.75 KB > 8 KB *) in
  let refs = Array.init (3 * n) (fun i -> i mod n) in
  let t = T.make ~elem_size:32 refs in
  let model = T.main_memory_accesses ~cache:small_cache t in
  let sim = simulate_elements ~cache:small_cache ~elem_size:32 refs in
  let err = Dvf_util.Maths.rel_error ~expected:(float_of_int sim) ~actual:model in
  Alcotest.(check bool)
    (Printf.sprintf "model %.0f vs sim %d (err %.1f%%)" model sim (100.0 *. err))
    true (err <= 0.15)

let test_model_matches_simulation_small_working_set () =
  (* Working set fits: model and simulation must both report only cold
     misses. *)
  let n = 100 in
  let refs = Array.init (5 * n) (fun i -> i mod n) in
  let t = T.make ~elem_size:32 refs in
  let model = T.main_memory_accesses ~cache:small_cache t in
  let sim = simulate_elements ~cache:small_cache ~elem_size:32 refs in
  Alcotest.(check int) "sim cold only" n sim;
  Alcotest.(check (float 0.5)) "model cold only" (float_of_int n) model

(* --- Template_lang --- *)

let test_linearize_row_major () =
  (* Paper: R(i,j,k) = i*n2*n1 + j*n1 + k with shape [n3; n2; n1]. *)
  let shape = [ 8; 6; 4 ] in
  Alcotest.(check int) "R(2,1,1)" ((2 * 6 * 4) + (1 * 4) + 1)
    (L.linearize ~shape [ 2; 1; 1 ]);
  Alcotest.(check int) "origin" 0 (L.linearize ~shape [ 0; 0; 0 ])

let test_linearize_rank_mismatch () =
  Alcotest.check_raises "rank" (Invalid_argument "Template_lang.linearize: rank mismatch")
    (fun () -> ignore (L.linearize ~shape:[ 2; 2 ] [ 1 ]))

let test_expand_refs () =
  let open L in
  let g = Refs [ [ Expr.Int 3 ]; [ Expr.Int 1 ]; [ Expr.Int 4 ] ] in
  Alcotest.(check (array int)) "literal refs" [| 3; 1; 4 |]
    (expand ~env:[] ~shape:[ Expr.Int 10 ] g)

let test_expand_range_mg_style () =
  (* Two streams advancing by 1 from (0,0) and (0,2) to (0,3) and (0,5) in
     a 4x8 grid: stream offsets 0->3 and 2->5, interleaved round-robin. *)
  let open L in
  let shape = [ Expr.Var "n2"; Expr.Var "n1" ] in
  let env = [ ("n2", 4); ("n1", 8) ] in
  let g =
    Range
      {
        start = [ [ Expr.Int 0; Expr.Int 0 ]; [ Expr.Int 0; Expr.Int 2 ] ];
        step = Expr.Int 1;
        stop = [ [ Expr.Int 0; Expr.Int 3 ]; [ Expr.Int 0; Expr.Int 5 ] ];
      }
  in
  Alcotest.(check (array int)) "interleaved"
    [| 0; 2; 1; 3; 2; 4; 3; 5 |]
    (expand ~env ~shape g)

let test_expand_range_with_dim_exprs () =
  (* Stop expressed through dimension variables, like the paper's
     R(n3-1, n2-2, n1). *)
  let open L in
  let shape = [ Expr.Var "n"; Expr.Var "n" ] in
  let env = [ ("n", 4) ] in
  let g =
    Range
      {
        start = [ [ Expr.Int 0; Expr.Int 0 ] ];
        step = Expr.Int 1;
        stop = [ [ Expr.Sub (Expr.Var "n", Expr.Int 1); Expr.Sub (Expr.Var "n", Expr.Int 1) ] ];
      }
  in
  let out = expand ~env ~shape g in
  Alcotest.(check int) "covers the grid" 16 (Array.length out);
  Alcotest.(check int) "last" 15 out.(15)

let test_expand_pass () =
  let open L in
  let g = Pass { start = Expr.Int 2; count = Expr.Int 4; stride = Expr.Int 3 } in
  Alcotest.(check (array int)) "pass" [| 2; 5; 8; 11 |]
    (expand ~env:[] ~shape:[ Expr.Int 100 ] g)

let test_expand_repeat_seq () =
  let open L in
  let g =
    Repeat
      ( Expr.Int 2,
        [ Pass { start = Expr.Int 0; count = Expr.Int 2; stride = Expr.Int 1 } ] )
  in
  Alcotest.(check (array int)) "repeat" [| 0; 1; 0; 1 |]
    (expand ~env:[] ~shape:[ Expr.Int 10 ] g);
  let s = Seq [ g; Refs [ [ Expr.Int 9 ] ] ] in
  Alcotest.(check (array int)) "seq" [| 0; 1; 0; 1; 9 |]
    (expand ~env:[] ~shape:[ Expr.Int 10 ] s)

let test_expansion_length_agrees () =
  let open L in
  let g =
    Seq
      [
        Pass { start = Expr.Int 0; count = Expr.Int 7; stride = Expr.Int 2 };
        Repeat (Expr.Int 3, [ Refs [ [ Expr.Int 1 ]; [ Expr.Int 2 ] ] ]);
      ]
  in
  let shape = [ Expr.Int 100 ] in
  Alcotest.(check int) "length"
    (Array.length (expand ~env:[] ~shape g))
    (expansion_length ~env:[] ~shape g)

let test_range_errors () =
  let open L in
  let shape = [ Expr.Int 100 ] in
  Alcotest.check_raises "zero step" (Failure "Template_lang: range step is zero")
    (fun () ->
      ignore
        (expand ~env:[] ~shape
           (Range { start = [ [ Expr.Int 0 ] ]; step = Expr.Int 0; stop = [ [ Expr.Int 5 ] ] })));
  (* Unequal stream spans: the sweep stops when the first stream reaches
     its boundary (6 iterations here). *)
  Alcotest.(check int) "min span wins" 12
    (Array.length
       (expand ~env:[] ~shape
          (Range
             {
               start = [ [ Expr.Int 0 ]; [ Expr.Int 0 ] ];
               step = Expr.Int 1;
               stop = [ [ Expr.Int 5 ]; [ Expr.Int 7 ] ];
             })));
  Alcotest.check_raises "unbound var"
    (Failure "Template_lang: unbound dimension variable zz") (fun () ->
      ignore (expand ~env:[] ~shape (Refs [ [ Expr.Var "zz" ] ])))

(* Property: template-model misses never exceed trace length and never go
   below the distinct block count. *)
let prop_miss_bounds =
  QCheck.Test.make ~count:200 ~name:"template misses bounded"
    QCheck.(pair (int_range 1 64) (list_of_size (Gen.int_range 1 300) (int_range 0 63)))
    (fun (capacity, refs) ->
      let trace = Array.of_list refs in
      let distinct = Hashtbl.create 16 in
      Array.iter (fun b -> Hashtbl.replace distinct b ()) trace;
      let m = T.misses_on_blocks ~capacity ~distance:`Stack trace in
      m >= Hashtbl.length distinct && m <= Array.length trace)

(* Property: the stack-distance model agrees exactly with a
   fully-associative LRU simulation. *)
let prop_stack_matches_fully_associative_lru =
  QCheck.Test.make ~count:200 ~name:"stack model = fully-associative LRU"
    QCheck.(pair (int_range 1 16) (list_of_size (Gen.int_range 1 300) (int_range 0 40)))
    (fun (capacity, refs) ->
      let trace = Array.of_list refs in
      (* Reference fully-associative LRU. *)
      let lru = ref [] in
      let misses = ref 0 in
      Array.iter
        (fun b ->
          if List.mem b !lru then lru := b :: List.filter (fun x -> x <> b) !lru
          else begin
            incr misses;
            let kept = b :: !lru in
            lru :=
              (if List.length kept > capacity then
                 List.filteri (fun i _ -> i < capacity) kept
               else kept)
          end)
        trace;
      T.misses_on_blocks ~capacity ~distance:`Stack trace = !misses)

(* Reference fully-associative LRU with dirty bits, for the writeback
   accounting. *)
let reference_lru_with_writebacks ~capacity trace writes =
  let lru = ref [] (* (block, dirty), MRU first *) in
  let misses = ref 0 and writebacks = ref 0 in
  Array.iteri
    (fun i b ->
      let w = writes.(i) in
      match List.assoc_opt b !lru with
      | Some dirty ->
          lru := (b, dirty || w) :: List.remove_assoc b !lru
      | None ->
          incr misses;
          let kept = (b, w) :: !lru in
          if List.length kept > capacity then begin
            let rec split acc = function
              | [ (_, dirty) ] ->
                  if dirty then incr writebacks;
                  List.rev acc
              | x :: rest -> split (x :: acc) rest
              | [] -> assert false
            in
            lru := split [] kept
          end
          else lru := kept)
    trace;
  List.iter (fun (_, dirty) -> if dirty then incr writebacks) !lru;
  (!misses, !writebacks)

let prop_writebacks_match_reference =
  QCheck.Test.make ~count:200 ~name:"template writebacks = LRU reference"
    QCheck.(
      pair (int_range 1 12)
        (list_of_size (Gen.int_range 1 200) (pair (int_range 0 30) bool)))
    (fun (capacity, ops) ->
      let trace = Array.of_list (List.map fst ops) in
      let writes = Array.of_list (List.map snd ops) in
      let expected = reference_lru_with_writebacks ~capacity trace writes in
      let got =
        T.accesses_on_blocks ~capacity ~distance:`Stack ~writes:(Some writes)
          trace
      in
      got = expected)

(* Property: the model walks the element stream itself (dense ids) or a
   renumbered block trace (sparse ids), and either way agrees with the
   explicit block trace and with the naive LRU.  Elements of 12 and 24 B
   straddle lines; in half the cases some indices are scaled by 2^40,
   which forces the renumbering. *)
let gen_template_case =
  let open QCheck.Gen in
  let* elem_size = oneofl [ 1; 4; 8; 12; 16; 24; 32 ] in
  let* line = oneofl [ 8; 16; 32; 64 ] in
  let* associativity = int_range 1 4 in
  let* sets = oneofl [ 1; 2; 4 ] in
  let* cache_ratio = map (fun k -> float_of_int k /. 8.0) (int_range 1 8) in
  let* sparse = bool in
  let index =
    if sparse then
      frequency
        [ (4, int_range 0 40); (1, map (fun i -> i lsl 40) (int_range 1 40)) ]
    else int_range 0 40
  in
  let* refs = array_size (int_range 1 200) index in
  let* writes = opt (array_size (return (Array.length refs)) bool) in
  let cache = Cachesim.Config.make ~name:"tiny" ~associativity ~sets ~line in
  return (cache, T.make ~cache_ratio ?writes ~elem_size refs)

let print_template_case (cache, t) =
  Printf.sprintf "line=%d blocks=%d %s refs=[%s] writes=%s"
    cache.Cachesim.Config.line (Cachesim.Config.blocks cache)
    (Format.asprintf "%a" T.pp t)
    (String.concat ";" (Array.to_list (Array.map string_of_int t.T.refs)))
    (match t.T.writes with
    | None -> "none"
    | Some ws ->
        String.init (Array.length ws) (fun i -> if ws.(i) then 'w' else 'r'))

let prop_model_matches_block_trace_and_lru =
  QCheck.Test.make ~count:300 ~name:"template model = block trace = LRU"
    (QCheck.make ~print:print_template_case gen_template_case)
    (fun (cache, t) ->
      let capacity = T.available_blocks ~cache t in
      let trace, flags = T.block_trace ~line:cache.Cachesim.Config.line t in
      let writes = Option.map (fun _ -> flags) t.T.writes in
      let m, w = T.accesses_on_blocks ~capacity ~distance:`Stack ~writes trace in
      let rm, rw = reference_lru_with_writebacks ~capacity trace flags in
      let model = T.main_memory_accesses ~cache t in
      model = float_of_int (m + w) && model = float_of_int (rm + rw))

let suite =
  [
    Alcotest.test_case "first touch counts" `Quick test_first_touch_counts;
    Alcotest.test_case "reuse within capacity hits" `Quick
      test_reuse_within_capacity_hits;
    Alcotest.test_case "reuse beyond capacity misses" `Quick
      test_reuse_beyond_capacity_misses;
    Alcotest.test_case "stack vs raw distance" `Quick
      test_stack_distance_ignores_duplicates;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "block lowering" `Quick test_block_trace_lowering;
    Alcotest.test_case "index overflow rejected" `Quick
      test_index_overflow_rejected;
    Alcotest.test_case "available blocks ratio" `Quick
      test_available_blocks_ratio;
    Alcotest.test_case "model vs simulation (thrash)" `Quick
      test_model_matches_simulation_sequential;
    Alcotest.test_case "model vs simulation (resident)" `Quick
      test_model_matches_simulation_small_working_set;
    Alcotest.test_case "linearize row major" `Quick test_linearize_row_major;
    Alcotest.test_case "linearize rank mismatch" `Quick
      test_linearize_rank_mismatch;
    Alcotest.test_case "expand literal refs" `Quick test_expand_refs;
    Alcotest.test_case "expand MG-style range" `Quick test_expand_range_mg_style;
    Alcotest.test_case "expand range with dims" `Quick
      test_expand_range_with_dim_exprs;
    Alcotest.test_case "expand pass" `Quick test_expand_pass;
    Alcotest.test_case "expand repeat/seq" `Quick test_expand_repeat_seq;
    Alcotest.test_case "expansion length agrees" `Quick
      test_expansion_length_agrees;
    Alcotest.test_case "range errors" `Quick test_range_errors;
    QCheck_alcotest.to_alcotest prop_miss_bounds;
    QCheck_alcotest.to_alcotest prop_stack_matches_fully_associative_lru;
    QCheck_alcotest.to_alcotest prop_writebacks_match_reference;
    QCheck_alcotest.to_alcotest prop_model_matches_block_trace_and_lru;
  ]
