(* Memtrace.Tape_store: the content-addressed capture cache.

   Core behaviours under test: a miss captures and persists, a hit skips
   capture entirely and returns the identical tape; entries that cannot
   be trusted — stale format version, corrupt payload, provenance that
   does not match the key — are evicted and recaptured, never served;
   list/gc report and clear the untrustworthy entries. *)

module C = Cachesim
module Mt = Memtrace
module T = Dvf_util.Telemetry

let scratch_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "store_scratch_%d_%d" (Unix.getpid ()) !counter

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store ?telemetry f =
  let dir = scratch_dir () in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () -> f (Mt.Tape_store.create ?telemetry ~dir ()))

let key = { Mt.Tape_store.workload = "VM"; size = "n=64 (verification)"; seed = 0 }

let synthetic_events n =
  List.init n (fun i ->
      let owner = 1 + (i mod 3) in
      let addr = (i * 24 mod 4096) + (i mod 7 * 4096) in
      let size = 1 + (i mod 9) in
      if i mod 4 = 0 then Mt.Event.write ~owner ~addr ~size
      else Mt.Event.read ~owner ~addr ~size)

let make_capture n () =
  let registry = Mt.Region.create () in
  ignore (Mt.Region.register registry ~name:"A" ~elements:256 ~elem_size:8);
  let tape = Mt.Tape.create ~chunk_events:64 () in
  List.iter (Mt.Tape.append tape) (synthetic_events n);
  (registry, tape)

let check_same_tape name expected actual =
  Alcotest.(check int)
    (name ^ ": length")
    (Mt.Tape.length expected) (Mt.Tape.length actual);
  Alcotest.(check bool) (name ^ ": events") true
    (List.for_all2 Mt.Event.equal (Mt.Tape.to_list expected)
       (Mt.Tape.to_list actual))

(* --- miss, save, hit --- *)

let test_find_on_empty () =
  with_store (fun store ->
      Alcotest.(check bool) "empty store misses" true
        (Mt.Tape_store.find store key = None))

let test_find_or_capture_once () =
  let telemetry = T.create () in
  with_store ~telemetry (fun store ->
      let captures = ref 0 in
      let capture () =
        incr captures;
        make_capture 200 ()
      in
      let _, tape1, hit1 = Mt.Tape_store.find_or_capture store key ~capture in
      Alcotest.(check bool) "first call misses" false hit1;
      Alcotest.(check int) "first call captures" 1 !captures;
      let _, tape2, hit2 = Mt.Tape_store.find_or_capture store key ~capture in
      Alcotest.(check bool) "second call hits" true hit2;
      Alcotest.(check int) "second call does not capture" 1 !captures;
      check_same_tape "hit returns the saved tape" tape1 tape2;
      Alcotest.(check int) "store/misses" 1 (T.counter_value telemetry "store/misses");
      Alcotest.(check int) "store/hits" 1 (T.counter_value telemetry "store/hits");
      Alcotest.(check bool) "save and load bytes counted" true
        (T.counter_value telemetry "store/save_bytes" > 0
        && T.counter_value telemetry "store/load_bytes"
           = T.counter_value telemetry "store/save_bytes"))

let test_distinct_keys_distinct_paths () =
  with_store (fun store ->
      let p k = Mt.Tape_store.path store k in
      Alcotest.(check bool) "workload distinguishes" true
        (p key <> p { key with Mt.Tape_store.workload = "CG" });
      Alcotest.(check bool) "size distinguishes" true
        (p key <> p { key with Mt.Tape_store.size = "other" });
      Alcotest.(check bool) "seed distinguishes" true
        (p key <> p { key with Mt.Tape_store.seed = 1 });
      (* Path is deterministic: same key, same file, across store
         handles. *)
      Alcotest.(check string) "stable" (p key) (p key))

(* --- eviction of untrustworthy entries --- *)

let patch_file path f =
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  f b;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_corrupt_entry_evicted () =
  let telemetry = T.create () in
  with_store ~telemetry (fun store ->
      let registry, tape = make_capture 200 () in
      Mt.Tape_store.save store key ~registry ~tape;
      let path = Mt.Tape_store.path store key in
      patch_file path (fun b ->
          let pos = Bytes.length b - 9 in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1)));
      Alcotest.(check bool) "corrupt entry not served" true
        (Mt.Tape_store.find store key = None);
      Alcotest.(check bool) "corrupt entry removed" false (Sys.file_exists path);
      Alcotest.(check int) "store/evictions" 1
        (T.counter_value telemetry "store/evictions");
      (* find_or_capture recaptures over the evicted slot. *)
      let _, _, hit =
        Mt.Tape_store.find_or_capture store key ~capture:(make_capture 200)
      in
      Alcotest.(check bool) "recaptured" false hit;
      Alcotest.(check bool) "fresh entry back on disk" true
        (Sys.file_exists path))

let test_stale_version_evicted () =
  with_store (fun store ->
      let registry, tape = make_capture 64 () in
      Mt.Tape_store.save store key ~registry ~tape;
      let path = Mt.Tape_store.path store key in
      (* Rewrite the u32 format version after the 8-byte magic. *)
      patch_file path (fun b -> Bytes.set_int32_le b 8 9999l);
      Alcotest.(check bool) "stale entry not served" true
        (Mt.Tape_store.find store key = None);
      Alcotest.(check bool) "stale entry removed" false (Sys.file_exists path))

let test_meta_mismatch_evicted () =
  with_store (fun store ->
      (* A structurally valid tape whose provenance disagrees with the
         key it is filed under (e.g. a hash collision or a hand-renamed
         file) must not be served. *)
      let registry, tape = make_capture 64 () in
      Mt.Tape_io.save
        ~path:(Mt.Tape_store.path store key)
        ~meta:
          {
            Mt.Tape_io.workload = "CG";
            size = "someone else's capture";
            seed = 3;
          }
        ~registry ~tape;
      Alcotest.(check bool) "mismatched entry not served" true
        (Mt.Tape_store.find store key = None);
      Alcotest.(check bool) "mismatched entry removed" false
        (Sys.file_exists (Mt.Tape_store.path store key)))

let test_format_bump_retires_v1_entries () =
  with_store (fun store ->
      let registry, tape = make_capture 64 () in
      (* An entry left behind by a v1-era build: same logical key, but
         filed under the name that build computed (the key hash embeds
         the format version) and declaring version 1 in its header. *)
      let v1_name =
        Printf.sprintf "%s-%016Lx.dvftape" key.Mt.Tape_store.workload
          (Int64.of_int
             (Mt.Tape_io.hash_string
                (Printf.sprintf "v1|%s|%s|%d" key.Mt.Tape_store.workload
                   key.Mt.Tape_store.size key.Mt.Tape_store.seed)))
      in
      let v1_path = Filename.concat (Mt.Tape_store.dir store) v1_name in
      Mt.Tape_io.save ~path:v1_path
        ~meta:
          {
            Mt.Tape_io.workload = key.Mt.Tape_store.workload;
            size = key.Mt.Tape_store.size;
            seed = key.Mt.Tape_store.seed;
          }
        ~registry ~tape;
      patch_file v1_path (fun b -> Bytes.set_int32_le b 8 1l);
      (* This build never probes the v1 name: a clean miss, and the old
         file is left for gc rather than eagerly evicted. *)
      Alcotest.(check bool) "v1 entry is not served" true
        (Mt.Tape_store.find store key = None);
      Alcotest.(check bool) "v1 file awaits gc" true (Sys.file_exists v1_path);
      (* list labels it stale — a tape, but its declared version is not
         this build's. *)
      (match Mt.Tape_store.list store with
      | [ e ] ->
          Alcotest.(check bool) "labelled Stale 1" true
            (e.Mt.Tape_store.status = `Stale 1)
      | es -> Alcotest.failf "expected one entry, got %d" (List.length es));
      (* find_or_capture recaptures under the current name... *)
      let _, _, hit =
        Mt.Tape_store.find_or_capture store key ~capture:(make_capture 64)
      in
      Alcotest.(check bool) "recaptured" false hit;
      Alcotest.(check bool) "current-format entry on disk" true
        (Sys.file_exists (Mt.Tape_store.path store key));
      (* ...and gc reaps the retired v1 file, keeping the fresh one. *)
      let removed = Mt.Tape_store.gc store in
      Alcotest.(check (list string)) "gc reaps the v1 entry" [ v1_name ] removed;
      Alcotest.(check bool) "fresh entry survives" true
        (Mt.Tape_store.find store key <> None))

(* --- list / gc --- *)

let test_list_and_gc () =
  with_store (fun store ->
      let registry, tape = make_capture 64 () in
      Mt.Tape_store.save store key ~registry ~tape;
      let cg_key = { key with Mt.Tape_store.workload = "CG" } in
      Mt.Tape_store.save store cg_key ~registry ~tape;
      let mc_key = { key with Mt.Tape_store.workload = "MC" } in
      Mt.Tape_store.save store mc_key ~registry ~tape;
      patch_file (Mt.Tape_store.path store cg_key) (fun b ->
          Bytes.set_int32_le b 8 9999l);
      patch_file (Mt.Tape_store.path store mc_key) (fun b ->
          Bytes.set b 0 'X');
      let entries = Mt.Tape_store.list store in
      Alcotest.(check int) "three entries" 3 (List.length entries);
      let count p = List.length (List.filter p entries) in
      Alcotest.(check int) "one ok" 1
        (count (fun e ->
             match e.Mt.Tape_store.status with `Ok _ -> true | _ -> false));
      Alcotest.(check int) "one stale" 1
        (count (fun e ->
             match e.Mt.Tape_store.status with `Stale 9999 -> true | _ -> false));
      Alcotest.(check int) "one corrupt" 1
        (count (fun e ->
             match e.Mt.Tape_store.status with `Corrupt _ -> true | _ -> false));
      let removed = Mt.Tape_store.gc store in
      Alcotest.(check int) "gc removes the bad pair" 2 (List.length removed);
      Alcotest.(check int) "good entry survives" 1
        (List.length (Mt.Tape_store.list store));
      Alcotest.(check bool) "good entry still loads" true
        (Mt.Tape_store.find store key <> None))

let test_gc_orphaned_temps () =
  with_store (fun store ->
      let registry, tape = make_capture 64 () in
      Mt.Tape_store.save store key ~registry ~tape;
      (* The residue of an interrupted atomic save: [Tape_io.save]
         writes [<entry>.tmp] and renames, so a lingering .tmp is
         garbage by construction. *)
      let orphan =
        Filename.concat (Mt.Tape_store.dir store) "dead.dvftape.tmp"
      in
      let oc = open_out_bin orphan in
      output_string oc "partial write";
      close_out oc;
      let removed = Mt.Tape_store.gc store in
      Alcotest.(check (list string)) "orphan removed"
        [ "dead.dvftape.tmp" ] removed;
      Alcotest.(check bool) "orphan gone from disk" false
        (Sys.file_exists orphan);
      Alcotest.(check bool) "live entry untouched" true
        (Mt.Tape_store.find store key <> None))

let entry_bytes store k =
  let ic = open_in_bin (Mt.Tape_store.path store k) in
  let n = in_channel_length ic in
  close_in ic;
  n

let set_mtime path mtime = Unix.utimes path mtime mtime

let test_gc_lru_budget () =
  let telemetry = T.create () in
  with_store ~telemetry (fun store ->
      let registry, tape = make_capture 64 () in
      let keys =
        List.map
          (fun w -> { key with Mt.Tape_store.workload = w })
          [ "VM"; "CG"; "MC" ]
      in
      List.iter (fun k -> Mt.Tape_store.save store k ~registry ~tape) keys;
      let sizes = List.map (entry_bytes store) keys in
      let total = List.fold_left ( + ) 0 sizes in
      let size_of k = entry_bytes store k in
      (* Pin explicit ages: VM oldest, CG middle, MC newest. *)
      List.iteri
        (fun i k -> set_mtime (Mt.Tape_store.path store k) (1000.0 +. float_of_int i))
        keys;
      (* A budget that already holds: nothing to do. *)
      Alcotest.(check (list string)) "within budget: no evictions" []
        (Mt.Tape_store.gc ~max_bytes:total store);
      (* Shave one byte off: exactly the oldest entry goes. *)
      let vm = List.nth keys 0 and cg = List.nth keys 1 in
      let mc = List.nth keys 2 in
      let removed = Mt.Tape_store.gc ~max_bytes:(total - 1) store in
      Alcotest.(check int) "one eviction" 1 (List.length removed);
      Alcotest.(check bool) "oldest (VM) evicted" false
        (Sys.file_exists (Mt.Tape_store.path store vm));
      Alcotest.(check bool) "newer entries survive" true
        (Sys.file_exists (Mt.Tape_store.path store cg)
        && Sys.file_exists (Mt.Tape_store.path store mc));
      (* A hit refreshes recency: touch CG older than MC, then read CG —
         the LRU victim must now be MC. *)
      set_mtime (Mt.Tape_store.path store cg) 2000.0;
      set_mtime (Mt.Tape_store.path store mc) 3000.0;
      Alcotest.(check bool) "hit on CG" true
        (Mt.Tape_store.find store cg <> None);
      let removed = Mt.Tape_store.gc ~max_bytes:(size_of cg) store in
      Alcotest.(check int) "one more eviction" 1 (List.length removed);
      Alcotest.(check bool) "recently-read CG survives" true
        (Sys.file_exists (Mt.Tape_store.path store cg));
      Alcotest.(check bool) "stale MC evicted" false
        (Sys.file_exists (Mt.Tape_store.path store mc));
      (* Zero budget empties the store; negative is an error. *)
      Alcotest.(check int) "zero budget clears the store" 1
        (List.length (Mt.Tape_store.gc ~max_bytes:0 store));
      Alcotest.(check int) "store empty" 0
        (List.length (Mt.Tape_store.list store));
      (match Mt.Tape_store.gc ~max_bytes:(-1) store with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "negative max_bytes must be rejected");
      Alcotest.(check int) "every removal counted as an eviction" 3
        (T.counter_value telemetry "store/evictions"))

let test_create_on_file_rejected () =
  let path = scratch_dir () in
  Fun.protect
    ~finally:(fun () -> remove_tree path)
    (fun () ->
      let oc = open_out path in
      close_out oc;
      match Mt.Tape_store.create ~dir:path () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument on a non-directory")

(* --- integration with Verify.capture --- *)

let test_verify_capture_through_store () =
  let telemetry = T.create () in
  with_store ~telemetry (fun store ->
      let instance = Core.Workloads.verification_instance Core.Workloads.vm in
      let cold = Core.Verify.capture ~telemetry ~store instance in
      Alcotest.(check int) "cold run captures" 1
        (T.counter_value telemetry "store/misses");
      let captured_before = T.counter_value telemetry "tape/capture_events" in
      Alcotest.(check bool) "kernel actually ran" true (captured_before > 0);
      let warm = Core.Verify.capture ~telemetry ~store instance in
      Alcotest.(check int) "warm run hits" 1
        (T.counter_value telemetry "store/hits");
      (* The acceptance invariant: a hit skips kernel execution, so the
         capture-event counter does not move. *)
      Alcotest.(check int) "no new capture events" captured_before
        (T.counter_value telemetry "tape/capture_events");
      check_same_tape "warm tape = cold tape" cold.Core.Verify.tape
        warm.Core.Verify.tape;
      Alcotest.(check bool) "registries agree" true
        (Mt.Region.export cold.Core.Verify.registry
        = Mt.Region.export warm.Core.Verify.registry))

let suite =
  [
    Alcotest.test_case "find on empty store" `Quick test_find_on_empty;
    Alcotest.test_case "find_or_capture captures once" `Quick
      test_find_or_capture_once;
    Alcotest.test_case "distinct keys, distinct paths" `Quick
      test_distinct_keys_distinct_paths;
    Alcotest.test_case "corrupt entry evicted" `Quick test_corrupt_entry_evicted;
    Alcotest.test_case "stale version evicted" `Quick test_stale_version_evicted;
    Alcotest.test_case "meta mismatch evicted" `Quick test_meta_mismatch_evicted;
    Alcotest.test_case "format bump retires v1 entries" `Quick
      test_format_bump_retires_v1_entries;
    Alcotest.test_case "list and gc" `Quick test_list_and_gc;
    Alcotest.test_case "gc removes orphaned temporaries" `Quick
      test_gc_orphaned_temps;
    Alcotest.test_case "gc enforces an LRU byte budget" `Quick
      test_gc_lru_budget;
    Alcotest.test_case "create on a file is rejected" `Quick
      test_create_on_file_rejected;
    Alcotest.test_case "Verify.capture through the store" `Quick
      test_verify_capture_through_store;
  ]
