(* The all-geometry walk ([Cachesim.Sweep]) against one dedicated cache
   per geometry and against the naive list-based LRU of test_cachesim. *)

module C = Cachesim

let pack events =
  Array.map
    (fun (addr, size, owner, write) -> C.Cache.pack ~owner ~write ~addr ~size)
    events

(* Walk [events] as the batches cut at [bounds] (ascending, from 0 to the
   length), one walker per shard; returns the walkers and their summed
   statistics, one record per config. *)
let sweep_walk configs ~shards ~bounds events =
  let packed = pack events in
  let walkers =
    List.init shards (fun shard ->
        let s = C.Sweep.create configs in
        let rec batches = function
          | a :: (b :: _ as rest) ->
              C.Sweep.access_batch s ~events:packed ~pos:a ~len:(b - a)
                ~shards ~shard;
              batches rest
          | _ -> ()
        in
        batches bounds;
        C.Sweep.flush s;
        s)
  in
  let per_shard = List.map C.Sweep.stats walkers in
  ( walkers,
    List.mapi
      (fun i _ -> C.Stats.sum (List.map (fun st -> List.nth st i) per_shard))
      configs )

let cache_walk cfg events =
  let cache = C.Cache.create cfg in
  C.Cache.access_batch cache ~events:(pack events) ~pos:0
    ~len:(Array.length events) ~shards:1 ~shard:0 ~fill:C.Cache.nofeed
    ~spill:C.Cache.nofeed;
  C.Cache.flush cache;
  C.Cache.stats cache

let configs_of ~line ~assoc sets =
  List.mapi
    (fun i sets ->
      C.Config.make ~name:(Printf.sprintf "g%d" i) ~associativity:assoc ~sets
        ~line)
    sets

(* Far addresses: a scaled address of at least 2^26 puts its line number
   (line 64 B at most, divided by 4 shards at most) at 2^18 or more, past
   the dense bound of 2^16 and twice the at most 300 x 13 line references
   of a case; the largest, (4095 lsl 26) + 99 bytes, stays below
   [Cache.max_addr]. *)
let far_shift = 26

let gen_case =
  let open QCheck.Gen in
  let* line = oneofl [ 8; 16; 32; 64 ] in
  let* assoc = 1 -- 8 in
  let* sets = list_size (1 -- 6) (oneofl [ 1; 2; 4; 8; 16; 32 ]) in
  let* shards = oneofl [ 1; 2; 4 ] in
  let* far = bool in
  let* events =
    array_size (1 -- 300)
      (let* addr = 0 -- 4095 in
       let* size = 1 -- 100 in
       let* owner = 0 -- 5 in
       let* write = bool in
       let* scaled = if far then bool else return false in
       return ((if scaled then addr lsl far_shift else addr), size, owner, write))
  in
  let* cuts = list_size (0 -- 6) (0 -- Array.length events) in
  return (line, assoc, sets, shards, events, cuts)

let print_case (line, assoc, sets, shards, events, cuts) =
  Printf.sprintf "line %d, %d-way, sets [%s], %d shards, %d events, cuts [%s]"
    line assoc
    (String.concat ";" (List.map string_of_int sets))
    shards (Array.length events)
    (String.concat ";" (List.map string_of_int cuts))

let prop_sweep_matches_caches =
  QCheck.Test.make ~count:300
    ~name:"one sweep walk = one cache per geometry = naive LRU"
    (QCheck.make ~print:print_case gen_case)
    (fun (line, assoc, sets, shards, events, cuts) ->
      let configs = configs_of ~line ~assoc sets in
      let n = Array.length events in
      let bounds = List.sort_uniq compare ((0 :: cuts) @ [ n ]) in
      let walkers, swept = sweep_walk configs ~shards ~bounds events in
      let far = Array.exists (fun (a, _, _, _) -> a >= 1 lsl far_shift) events in
      List.for_all2
        (fun cfg stats ->
          let snap = C.Stats.snapshot stats in
          snap = C.Stats.snapshot (cache_walk cfg events)
          &&
          snap
          = C.Stats.snapshot (Test_cachesim.reference_lru cfg events).stats)
        configs swept
      (* addresses past 2^26 force renumbering; small ones never do *)
      && List.exists C.Sweep.renumbered walkers = far)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_mixed_geometry_rejected () =
  let cfg ~assoc ~sets ~line =
    C.Config.make ~name:"x" ~associativity:assoc ~sets ~line
  in
  expect_invalid "no configs" (fun () -> C.Sweep.create []);
  expect_invalid "mixed line" (fun () ->
      C.Sweep.create
        [ cfg ~assoc:4 ~sets:8 ~line:64; cfg ~assoc:4 ~sets:16 ~line:32 ]);
  expect_invalid "mixed associativity" (fun () ->
      C.Sweep.create
        [ cfg ~assoc:4 ~sets:8 ~line:64; cfg ~assoc:8 ~sets:16 ~line:64 ])

(* Duplicates and any order: one record per config, in input order. *)
let test_order_and_duplicates () =
  let sets = [ 16; 1; 4; 16; 2 ] in
  let configs = configs_of ~line:16 ~assoc:2 sets in
  let events =
    Array.init 400 (fun i -> ((i * 37) mod 1500, 1 + (i mod 20), i mod 3, i mod 5 = 0))
  in
  let _, swept = sweep_walk configs ~shards:1 ~bounds:[ 0; 400 ] events in
  Alcotest.(check int) "one record per config" 5 (List.length swept);
  List.iter2
    (fun cfg stats ->
      Alcotest.(check bool)
        (Printf.sprintf "%d sets" cfg.C.Config.sets)
        true
        (C.Stats.snapshot stats = C.Stats.snapshot (cache_walk cfg events)))
    configs swept;
  Alcotest.(check bool) "duplicates are distinct records" true
    (List.nth swept 0 != List.nth swept 3)

(* A rejected batch changes nothing: walking the good batches around it
   gives the statistics of walking them alone. *)
let test_rejected_batch_leaves_state () =
  let configs = configs_of ~line:16 ~assoc:2 [ 2; 8 ] in
  let events =
    Array.init 200 (fun i -> ((i * 53) mod 900, 1 + (i mod 30), i mod 2, i mod 3 = 0))
  in
  let events = pack events in
  let bad = Array.copy events in
  bad.(150) <- -16;
  let run ~rejects =
    let s = C.Sweep.create configs in
    C.Sweep.access_batch s ~events ~pos:0 ~len:100 ~shards:2 ~shard:1;
    if rejects then begin
      expect_invalid "range past the array" (fun () ->
          C.Sweep.access_batch s ~events ~pos:100 ~len:101 ~shards:2 ~shard:1);
      expect_invalid "negative length" (fun () ->
          C.Sweep.access_batch s ~events ~pos:100 ~len:(-1) ~shards:2 ~shard:1);
      expect_invalid "negative event word" (fun () ->
          C.Sweep.access_batch s ~events:bad ~pos:100 ~len:100 ~shards:2
            ~shard:1);
      expect_invalid "shards not a power of two" (fun () ->
          C.Sweep.access_batch s ~events ~pos:100 ~len:100 ~shards:3 ~shard:1);
      expect_invalid "another shard selector" (fun () ->
          C.Sweep.access_batch s ~events ~pos:100 ~len:100 ~shards:2 ~shard:0)
    end;
    C.Sweep.access_batch s ~events ~pos:100 ~len:100 ~shards:2 ~shard:1;
    C.Sweep.flush s;
    List.map C.Stats.snapshot (C.Sweep.stats s)
  in
  Alcotest.(check bool) "rejected batches leave the walker untouched" true
    (run ~rejects:true = run ~rejects:false)

let suite =
  [
    Alcotest.test_case "mixed geometry rejected" `Quick
      test_mixed_geometry_rejected;
    Alcotest.test_case "any order, duplicates" `Quick test_order_and_duplicates;
    Alcotest.test_case "rejected batch leaves state" `Quick
      test_rejected_batch_leaves_state;
    QCheck_alcotest.to_alcotest prop_sweep_matches_caches;
  ]
