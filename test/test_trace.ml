module Mt = Memtrace

let test_region_layout_disjoint () =
  let reg = Mt.Region.create () in
  let a = Mt.Region.register reg ~name:"A" ~elements:100 ~elem_size:8 in
  let b = Mt.Region.register reg ~name:"B" ~elements:50 ~elem_size:4 in
  let a_end = a.Mt.Region.base + a.Mt.Region.bytes in
  Alcotest.(check bool) "disjoint" true (b.Mt.Region.base >= a_end);
  Alcotest.(check bool) "line aligned" true (a.Mt.Region.base mod 64 = 0);
  Alcotest.(check bool) "set-decorrelated" true
    (a.Mt.Region.base mod 2048 <> b.Mt.Region.base mod 2048);
  Alcotest.(check bool) "nonzero base" true (a.Mt.Region.base > 0)

let test_region_duplicate_name_rejected () =
  let reg = Mt.Region.create () in
  ignore (Mt.Region.register reg ~name:"A" ~elements:1 ~elem_size:1);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Region.register: duplicate region name A") (fun () ->
      ignore (Mt.Region.register reg ~name:"A" ~elements:1 ~elem_size:1))

let test_region_lookup () =
  let reg = Mt.Region.create () in
  let a = Mt.Region.register reg ~name:"A" ~elements:10 ~elem_size:8 in
  Alcotest.(check int) "lookup by name" a.Mt.Region.id
    (Mt.Region.lookup reg "A").Mt.Region.id;
  Alcotest.(check string) "owner name" "A" (Mt.Region.owner_name reg a.Mt.Region.id);
  Alcotest.(check string) "unknown owner" "<anon:99>" (Mt.Region.owner_name reg 99)

let test_elem_addr () =
  let reg = Mt.Region.create () in
  let a = Mt.Region.register reg ~name:"A" ~elements:10 ~elem_size:8 in
  Alcotest.(check int) "elem 0" a.Mt.Region.base (Mt.Region.elem_addr a 0);
  Alcotest.(check int) "elem 3" (a.Mt.Region.base + 24) (Mt.Region.elem_addr a 3);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Region.elem_addr: index 10 out of A") (fun () ->
      ignore (Mt.Region.elem_addr a 10))

let test_tracked_get_set () =
  let reg = Mt.Region.create () in
  let tape = Mt.Tape.create () in
  let arr = Mt.Tracked.make reg tape ~name:"X" ~elem_size:8 10 0.0 in
  Mt.Tracked.set arr 3 1.5;
  Alcotest.(check (float 0.0)) "get returns value" 1.5 (Mt.Tracked.get arr 3);
  let events = Mt.Tape.to_list tape in
  Alcotest.(check int) "two events" 2 (List.length events);
  let w = List.nth events 0 and r = List.nth events 1 in
  Alcotest.(check bool) "write event" true w.Mt.Event.write;
  Alcotest.(check bool) "read event" false r.Mt.Event.write;
  let region = Mt.Tracked.region arr in
  Alcotest.(check int) "addr of elem 3"
    (Mt.Region.elem_addr region 3)
    w.Mt.Event.addr

let test_tracked_silent_ops_untraced () =
  let reg = Mt.Region.create () in
  let tape = Mt.Tape.create () in
  let arr = Mt.Tracked.make reg tape ~name:"X" ~elem_size:4 5 0 in
  Mt.Tracked.set_silent arr 0 42;
  Alcotest.(check int) "silent get" 42 (Mt.Tracked.get_silent arr 0);
  Alcotest.(check int) "no events" 0 (Mt.Tape.length tape)

let test_tracked_init_untraced () =
  let reg = Mt.Region.create () in
  let tape = Mt.Tape.create () in
  let arr = Mt.Tracked.init reg tape ~name:"X" ~elem_size:4 100 (fun i -> i * i) in
  Alcotest.(check int) "initialized" 81 (Mt.Tracked.get_silent arr 9);
  Alcotest.(check int) "init untraced" 0 (Mt.Tape.length tape)

let test_tracked_touch () =
  let reg = Mt.Region.create () in
  let tape = Mt.Tape.create () in
  let arr = Mt.Tracked.make reg tape ~name:"X" ~elem_size:32 4 () in
  Mt.Tracked.touch arr 2;
  match Mt.Tape.to_list tape with
  | [ e ] ->
      Alcotest.(check bool) "is read" false e.Mt.Event.write;
      Alcotest.(check int) "size is elem_size" 32 e.Mt.Event.size
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

let test_tracked_cache_integration () =
  let reg = Mt.Region.create () in
  let tape = Mt.Tape.create () in
  let arr = Mt.Tracked.make reg tape ~name:"X" ~elem_size:8 16 0.0 in
  (* Two sequential passes: first all misses (4 lines of 32 B hold 16
     8-byte elements), second all hits. *)
  for _pass = 1 to 2 do
    for i = 0 to 15 do
      ignore (Mt.Tracked.get arr i)
    done
  done;
  let cache = Cachesim.Cache.create Cachesim.Config.small_verification in
  Mt.Tape.replay_fused tape [| cache |];
  let owner = (Mt.Tracked.region arr).Mt.Region.id in
  let c = Cachesim.Stats.owner_counters (Cachesim.Cache.stats cache) owner in
  Alcotest.(check int) "misses" 4 c.Cachesim.Stats.misses;
  Alcotest.(check int) "hits" 28 c.Cachesim.Stats.hits

let test_to_array_snapshot () =
  let reg = Mt.Region.create () in
  let arr =
    Mt.Tracked.init reg (Mt.Tape.create ()) ~name:"X" ~elem_size:4 3 (fun i -> i)
  in
  let snap = Mt.Tracked.to_array arr in
  Mt.Tracked.set_silent arr 0 99;
  Alcotest.(check int) "snapshot unaffected" 0 snap.(0)

(* A tracked array writes the words of its checked element range: the
   events [Region.elem_addr] describes, across chunk boundaries and
   interleaved with [Tape.append] in program order.  A bad index records
   nothing, and a range [pack] rejects fails when the array is made. *)
let test_tracked_element_range () =
  let reg = Mt.Region.create () in
  let tape = Mt.Tape.create ~chunk_events:4 () in
  let a = Mt.Tracked.make reg tape ~name:"A" ~elem_size:8 10 0.0 in
  let b = Mt.Tracked.make reg tape ~name:"B" ~elem_size:4 7 0 in
  let expected = ref [] in
  let record (r : Mt.Region.region) i ~write =
    expected :=
      { Mt.Event.owner = r.Mt.Region.id; write;
        addr = Mt.Region.elem_addr r i; size = r.Mt.Region.elem_size }
      :: !expected
  in
  for k = 0 to 24 do
    let i = k mod 10 and j = k * 3 mod 7 in
    Mt.Tracked.set a i (float_of_int k);
    record (Mt.Tracked.region a) i ~write:true;
    ignore (Mt.Tracked.get b j);
    record (Mt.Tracked.region b) j ~write:false;
    if k mod 5 = 0 then begin
      Mt.Tape.append tape ~owner:9 ~write:true ~addr:64 ~size:2;
      expected := Mt.Event.write ~owner:9 ~addr:64 ~size:2 :: !expected
    end
  done;
  Alcotest.(check int) "length" 55 (Mt.Tape.length tape);
  Alcotest.(check int) "chunks" 14 (Mt.Tape.chunk_count tape);
  Alcotest.(check bool) "events in program order" true
    (List.equal Mt.Event.equal (List.rev !expected) (Mt.Tape.to_list tape));
  Alcotest.(check (float 0.0)) "value stored" 24.0 (Mt.Tracked.get_silent a 4);
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "index past the end" (fun () -> Mt.Tracked.touch a 10);
  expect_invalid "negative index" (fun () -> Mt.Tracked.touch_write b (-1));
  expect_invalid "get past the end" (fun () -> ignore (Mt.Tracked.get b 7));
  Alcotest.(check int) "rejected accesses record nothing" 55
    (Mt.Tape.length tape);
  expect_invalid "element too large" (fun () ->
      Mt.Tracked.make reg tape ~name:"Big" ~elem_size:(Cachesim.Cache.max_size + 1)
        1 0);
  for k = 1 to Cachesim.Cache.max_owner do
    ignore
      (Mt.Region.register reg ~name:(Printf.sprintf "pad%d" k) ~elements:0
         ~elem_size:1)
  done;
  expect_invalid "owner id past max_owner" (fun () ->
      Mt.Tracked.make reg tape ~name:"Late" ~elem_size:8 1 0);
  Alcotest.(check int) "no event from a rejected array" 55
    (Mt.Tape.length tape)

let suite =
  [
    Alcotest.test_case "region layout disjoint" `Quick
      test_region_layout_disjoint;
    Alcotest.test_case "duplicate name rejected" `Quick
      test_region_duplicate_name_rejected;
    Alcotest.test_case "region lookup" `Quick test_region_lookup;
    Alcotest.test_case "elem_addr" `Quick test_elem_addr;
    Alcotest.test_case "tracked get/set traced" `Quick test_tracked_get_set;
    Alcotest.test_case "silent ops untraced" `Quick
      test_tracked_silent_ops_untraced;
    Alcotest.test_case "init untraced" `Quick test_tracked_init_untraced;
    Alcotest.test_case "touch" `Quick test_tracked_touch;
    Alcotest.test_case "cache sink integration" `Quick
      test_tracked_cache_integration;
    Alcotest.test_case "to_array snapshot" `Quick test_to_array_snapshot;
    Alcotest.test_case "tracked element range" `Quick
      test_tracked_element_range;
  ]
