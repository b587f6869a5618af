(* Memtrace.Tape_io: the persistent tape format.

   The contract is bit-identity across the disk boundary: save then load
   must reproduce the meta, the region registry and the event stream
   exactly, and a loaded tape must replay — plain, fused and sharded —
   to the same statistics as the in-memory original.  Anything that
   violates the format (bad magic, foreign version, flipped payload
   byte, truncation, trailing garbage) must surface as a structured
   error, never as a silently wrong tape. *)

module C = Cachesim
module Mt = Memtrace

let snap cache = C.Stats.snapshot (C.Cache.stats cache)

(* Fresh scratch path per test; tests run with cwd = _build/default/test
   so plain relative names stay inside the sandbox. *)
let scratch =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "tape_io_scratch_%d_%d.dvftape" (Unix.getpid ()) !counter

let with_tape_file f =
  let path = scratch () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let meta = { Mt.Tape_io.workload = "VM"; size = "n=64 (verification)"; seed = 7 }

(* A registry with a few regions plus a synthetic event stream touching
   them (same generator shape as test_tape.ml). *)
let make_registry () =
  let registry = Mt.Region.create () in
  ignore (Mt.Region.register registry ~name:"A" ~elements:512 ~elem_size:8);
  ignore (Mt.Region.register registry ~name:"B" ~elements:100 ~elem_size:4);
  ignore (Mt.Region.register registry ~name:"C" ~elements:1 ~elem_size:1);
  registry

let synthetic_events n =
  List.init n (fun i ->
      let owner = 1 + (i mod 3) in
      let addr = (i * 24 mod 4096) + (i mod 7 * 4096) in
      let size = 1 + (i mod 9) in
      if i mod 4 = 0 then Mt.Event.write ~owner ~addr ~size
      else Mt.Event.read ~owner ~addr ~size)

let make_tape ?(chunk_events = 64) n =
  Fixtures.tape_of_events ~chunk_events (synthetic_events n)

let load_exn path =
  match Mt.Tape_io.load path with
  | Ok v -> v
  | Error e -> Alcotest.failf "load %s: %s" path (Mt.Tape_io.error_to_string e)

let check_meta name (a : Mt.Tape_io.meta) (b : Mt.Tape_io.meta) =
  Alcotest.(check (triple string string int))
    name
    (a.Mt.Tape_io.workload, a.Mt.Tape_io.size, a.Mt.Tape_io.seed)
    (b.Mt.Tape_io.workload, b.Mt.Tape_io.size, b.Mt.Tape_io.seed)

let check_roundtrip n =
  with_tape_file (fun path ->
      let registry = make_registry () in
      let tape = make_tape n in
      Mt.Tape_io.save ~path ~meta ~registry ~tape;
      let meta', registry', tape' = load_exn path in
      check_meta "meta" meta meta';
      Alcotest.(check bool)
        "registry" true
        (Mt.Region.export registry = Mt.Region.export registry');
      Alcotest.(check int) "length" (Mt.Tape.length tape) (Mt.Tape.length tape');
      Alcotest.(check int) "chunks" (Mt.Tape.chunk_count tape)
        (Mt.Tape.chunk_count tape');
      Alcotest.(check bool) "events" true
        (List.for_all2 Mt.Event.equal (Mt.Tape.to_list tape)
           (Mt.Tape.to_list tape')))

(* --- round-trip bit-identity --- *)

let test_roundtrip_empty () = check_roundtrip 0
let test_roundtrip_one_event () = check_roundtrip 1

let test_roundtrip_multi_chunk () =
  (* 3 full chunks + a partial head (64-event chunks, 200 events). *)
  check_roundtrip 200

let test_roundtrip_exact_chunks () =
  (* Ends exactly on a chunk boundary: no partial head to restore. *)
  check_roundtrip 128

(* A v4 file is its header plus one 8-byte word per event. *)
let test_file_is_header_plus_words () =
  with_tape_file (fun path ->
      let size n =
        Mt.Tape_io.save ~path ~meta ~registry:(make_registry ())
          ~tape:(make_tape n);
        Int64.to_int (In_channel.with_open_bin path In_channel.length)
      in
      let header = size 0 in
      List.iter
        (fun n ->
          Alcotest.(check int)
            (Printf.sprintf "%d events" n)
            (header + (8 * n))
            (size n))
        [ 1; 64; 200 ])

let test_loaded_tape_replays_identically () =
  with_tape_file (fun path ->
      let registry = make_registry () in
      let tape = make_tape 3000 in
      Mt.Tape_io.save ~path ~meta ~registry ~tape;
      let _, _, loaded = load_exn path in
      let caches () =
        Array.of_list (List.map C.Cache.create C.Config.verification_set)
      in
      (* Fused walk of the original vs the loaded copy. *)
      let original = caches () and fused = caches () in
      Mt.Tape.replay_fused tape original;
      Mt.Tape.replay_fused loaded fused;
      (* Sharded walk of the loaded copy, shards replayed sequentially
         into one cache array (bit-identical to fused by contract). *)
      let sharded = caches () in
      let shards = 4 in
      for shard = 0 to shards - 1 do
        Mt.Tape.replay_fused_sharded loaded sharded ~shards ~shard
      done;
      Array.iter C.Cache.flush original;
      Array.iter C.Cache.flush fused;
      Array.iter C.Cache.flush sharded;
      Array.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "fused cache %d" i)
            true
            (snap o = snap fused.(i));
          Alcotest.(check bool)
            (Printf.sprintf "sharded cache %d" i)
            true
            (snap o = snap sharded.(i)))
        original)

let test_read_meta () =
  with_tape_file (fun path ->
      let registry = make_registry () in
      let tape = make_tape 10 in
      Mt.Tape_io.save ~path ~meta ~registry ~tape;
      match Mt.Tape_io.read_meta path with
      | Ok m -> check_meta "read_meta" meta m
      | Error e -> Alcotest.failf "read_meta: %s" (Mt.Tape_io.error_to_string e))

(* --- error surface --- *)

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

let save_good path =
  Mt.Tape_io.save ~path ~meta ~registry:(make_registry ()) ~tape:(make_tape 200)

let expect_error name path check =
  match Mt.Tape_io.load path with
  | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" name
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s)" name (Mt.Tape_io.error_to_string e))
        true (check e)

(* --- retired v1 format and version probing --- *)

(* A v1-era file is refused with a structured error, never an exception:
   the header's version field is all the readers look at first, so a
   current file patched to declare version 1 is indistinguishable from
   one. *)
let test_v1_version_mismatch () =
  with_tape_file (fun path ->
      save_good path;
      let b = Bytes.of_string (read_file path) in
      Bytes.set_int32_le b 8 1l;
      write_file path (Bytes.to_string b);
      expect_error "v1 load" path (function
        | Mt.Tape_io.Version_mismatch 1 -> true
        | _ -> false);
      match Mt.Tape_io.read_meta path with
      | Error (Mt.Tape_io.Version_mismatch 1) -> ()
      | Ok _ -> Alcotest.fail "read_meta accepted a v1 header"
      | Error e ->
          Alcotest.failf "read_meta: expected Version_mismatch 1, got %s"
            (Mt.Tape_io.error_to_string e))

(* The same for v2 (chunk table and partition index), retired by v3. *)
let test_v2_version_mismatch () =
  with_tape_file (fun path ->
      save_good path;
      let b = Bytes.of_string (read_file path) in
      Bytes.set_int32_le b 8 2l;
      write_file path (Bytes.to_string b);
      expect_error "v2 load" path (function
        | Mt.Tape_io.Version_mismatch 2 -> true
        | _ -> false))

(* The same for v3 (address and metadata word per event), retired by
   v4's one word per event. *)
let test_v3_version_mismatch () =
  with_tape_file (fun path ->
      save_good path;
      let b = Bytes.of_string (read_file path) in
      Bytes.set_int32_le b 8 3l;
      write_file path (Bytes.to_string b);
      expect_error "v3 load" path (function
        | Mt.Tape_io.Version_mismatch 3 -> true
        | _ -> false))

let test_read_version () =
  with_tape_file (fun path ->
      save_good path;
      (match Mt.Tape_io.read_version path with
      | Ok v ->
          Alcotest.(check int) "current files declare format_version"
            Mt.Tape_io.format_version v
      | Error e ->
          Alcotest.failf "read_version: %s" (Mt.Tape_io.error_to_string e));
      (* read_version reports whatever version a well-formed header
         declares — including ones [load] rejects — so Tape_store.list
         can label entries from foreign builds as stale, not corrupt. *)
      let b = Bytes.of_string (read_file path) in
      Bytes.set_int32_le b 8 99l;
      write_file path (Bytes.to_string b);
      (match Mt.Tape_io.read_version path with
      | Ok 99 -> ()
      | Ok v -> Alcotest.failf "expected Ok 99, got Ok %d" v
      | Error e ->
          Alcotest.failf "read_version: %s" (Mt.Tape_io.error_to_string e)))

let test_missing_file () =
  expect_error "missing file" "tape_io_no_such_file.dvftape" (function
    | Mt.Tape_io.Io_error _ -> true
    | _ -> false)

let test_bad_magic () =
  with_tape_file (fun path ->
      write_file path "definitely not a tape file, long enough to read\n";
      expect_error "bad magic" path (function
        | Mt.Tape_io.Bad_magic -> true
        | _ -> false))

let test_version_mismatch () =
  with_tape_file (fun path ->
      save_good path;
      (* The u32 format version sits right after the 8-byte magic. *)
      let b = Bytes.of_string (read_file path) in
      Bytes.set_int32_le b 8 99l;
      write_file path (Bytes.to_string b);
      expect_error "version mismatch" path (function
        | Mt.Tape_io.Version_mismatch 99 -> true
        | _ -> false))

let test_corrupt_payload () =
  with_tape_file (fun path ->
      save_good path;
      let b = Bytes.of_string (read_file path) in
      (* Flip one byte deep in the chunk payload: the checksum must
         catch it. *)
      let pos = Bytes.length b - 13 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      write_file path (Bytes.to_string b);
      expect_error "flipped payload byte" path (function
        | Mt.Tape_io.Corrupt _ -> true
        | _ -> false))

(* The checksum is not a signature: a file whose words were rewritten
   and re-sealed passes it, so [load] checks every word as the tape
   adopts it.  Re-sealing an unchanged word must load (the forging
   helper computes the real checksum); a word no [pack] returns — in the
   first chunk or the partial last one — is [Corrupt], never a tape
   whose replay raises. *)
let test_forged_word_corrupt () =
  with_tape_file (fun path ->
      save_good path;
      let good = read_file path in
      let forge ~index ~word =
        let b = Bytes.of_string good in
        Fixtures.forge_event_word b ~index ~word;
        write_file path (Bytes.to_string b)
      in
      let original = Mt.Tape.to_list (make_tape 200) in
      let w0 =
        let e = List.hd original in
        C.Cache.pack ~owner:e.Mt.Event.owner ~write:e.write ~addr:e.addr
          ~size:e.size
      in
      forge ~index:0 ~word:w0;
      let _, _, tape = load_exn path in
      Alcotest.(check bool) "re-sealed unchanged file loads" true
        (List.equal Mt.Event.equal original (Mt.Tape.to_list tape));
      List.iter
        (fun (index, word) ->
          forge ~index ~word;
          expect_error
            (Printf.sprintf "word %d forged to %d" index word)
            path
            (function
              | Mt.Tape_io.Corrupt msg ->
                  String.starts_with ~prefix:"invalid event word" msg
              | _ -> false))
        [ (0, -1); (0, 1 lsl 23); (199, 1 lsl 23); (150, -1) ])

(* The chunk capacity sizes the loader's allocations, so the checksum
   must vouch for it: a tape whose one partial chunk would load under
   any capacity >= its length, patched to claim a bigger capacity, is
   refused, and one past the format's bound is refused before the
   loader allocates for it. *)
let test_capacity_checksummed () =
  with_tape_file (fun path ->
      Mt.Tape_io.save ~path ~meta ~registry:(make_registry ())
        ~tape:(make_tape ~chunk_events:65536 10);
      let good = read_file path in
      List.iter
        (fun capacity ->
          let b = Bytes.of_string good in
          Bytes.set_int32_le b 12 (Int32.of_int capacity);
          write_file path (Bytes.to_string b);
          expect_error
            (Printf.sprintf "capacity patched to %d" capacity)
            path
            (function Mt.Tape_io.Corrupt _ -> true | _ -> false))
        [ 1 lsl 17; 1 lsl 25 ])

(* Every single-byte flip and every truncation of a small multi-chunk
   file either fails to load with a structured error or loads the very
   same events; no reader ever raises. *)
let test_mutations_are_safe () =
  with_tape_file (fun path ->
      let tape = make_tape ~chunk_events:16 40 in
      let registry = Mt.Region.create () in
      ignore (Mt.Region.register registry ~name:"A" ~elements:64 ~elem_size:8);
      ignore (Mt.Region.register registry ~name:"B" ~elements:9 ~elem_size:4);
      Mt.Tape_io.save ~path ~meta ~registry ~tape;
      let good = read_file path in
      let original = Mt.Tape.to_list tape in
      let check what bytes =
        write_file path bytes;
        (match Mt.Tape_io.load path with
        | Error _ -> ()
        | Ok (_, _, loaded) ->
            if not (List.equal Mt.Event.equal original (Mt.Tape.to_list loaded))
            then Alcotest.failf "%s: loaded a different tape" what
        | exception e ->
            Alcotest.failf "%s: load raised %s" what (Printexc.to_string e));
        (match Mt.Tape_io.read_meta path with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s: read_meta raised %s" what (Printexc.to_string e));
        match Mt.Tape_io.read_version path with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s: read_version raised %s" what
              (Printexc.to_string e)
      in
      String.iteri
        (fun pos c ->
          List.iter
            (fun mask ->
              let b = Bytes.of_string good in
              Bytes.set b pos (Char.chr (Char.code c lxor mask));
              check
                (Printf.sprintf "byte %d xor 0x%02x" pos mask)
                (Bytes.to_string b))
            [ 0x01; 0x80; 0xff ])
        good;
      for len = 0 to String.length good - 1 do
        check (Printf.sprintf "truncated to %d bytes" len) (String.sub good 0 len)
      done)

let test_truncated () =
  with_tape_file (fun path ->
      save_good path;
      let whole = read_file path in
      write_file path (String.sub whole 0 (String.length whole / 2));
      expect_error "truncated" path (function
        | Mt.Tape_io.Corrupt _ -> true
        | _ -> false))

let test_truncated_payload_tail () =
  with_tape_file (fun path ->
      save_good path;
      let whole = read_file path in
      (* Drop only the final 8 bytes: the header stays intact, so the
         exact-size check on the payload is what must catch it — no
         partial chunk may be adopted. *)
      write_file path (String.sub whole 0 (String.length whole - 8));
      expect_error "truncated payload" path (function
        | Mt.Tape_io.Corrupt _ -> true
        | _ -> false))

let test_trailing_garbage () =
  with_tape_file (fun path ->
      save_good path;
      write_file path (read_file path ^ "x");
      expect_error "trailing garbage" path (function
        | Mt.Tape_io.Corrupt _ -> true
        | _ -> false))

let test_save_is_atomic () =
  with_tape_file (fun path ->
      save_good path;
      (* No temporary debris left behind after a successful save. *)
      let prefix = path ^ "." in
      Alcotest.(check (list string)) "tmp removed" []
        (List.filter
           (fun f -> String.starts_with ~prefix f)
           (Array.to_list (Sys.readdir "."))))

(* --- fold_chunks (the walk everything else is built on) --- *)

let test_fold_chunks_equivalence () =
  let tape = make_tape ~chunk_events:16 100 in
  let total =
    Mt.Tape.fold_chunks tape ~init:0 ~f:(fun acc ~events:_ ~len ->
        acc + len)
  in
  Alcotest.(check int) "fold covers every event" (Mt.Tape.length tape) total;
  (* Decoding through the fold agrees with Tape.to_list. *)
  let decoded =
    Mt.Tape.fold_chunks tape ~init:[] ~f:(fun acc ~events ~len ->
        let here = ref [] in
        for i = len - 1 downto 0 do
          let w = events.(i) in
          here :=
            {
              Mt.Event.owner = C.Cache.event_owner w;
              write = C.Cache.event_write w;
              addr = C.Cache.event_addr w;
              size = C.Cache.event_size w;
            }
            :: !here
        done;
        acc @ !here)
  in
  Alcotest.(check bool) "fold decodes to to_list" true
    (List.for_all2 Mt.Event.equal (Mt.Tape.to_list tape) decoded)

let test_hash_string_stable () =
  (* The content-addressing hash must be deterministic across runs —
     pin a few values so an accidental algorithm change is caught. *)
  let h = Mt.Tape_io.hash_string in
  Alcotest.(check bool) "distinct inputs, distinct hashes" true
    (h "" <> h "a" && h "a" <> h "b" && h "ab" <> h "ba");
  Alcotest.(check int) "same input, same hash" (h "v1|VM|n=64|0")
    (h "v1|VM|n=64|0")

let suite =
  [
    Alcotest.test_case "roundtrip: empty tape" `Quick test_roundtrip_empty;
    Alcotest.test_case "roundtrip: one event" `Quick test_roundtrip_one_event;
    Alcotest.test_case "roundtrip: multi-chunk + partial head" `Quick
      test_roundtrip_multi_chunk;
    Alcotest.test_case "roundtrip: exact chunk boundary" `Quick
      test_roundtrip_exact_chunks;
    Alcotest.test_case "file is header + 8 B/event" `Quick
      test_file_is_header_plus_words;
    Alcotest.test_case "loaded tape replays identically (fused + sharded)"
      `Quick test_loaded_tape_replays_identically;
    Alcotest.test_case "read_meta" `Quick test_read_meta;
    Alcotest.test_case "v1 file is Version_mismatch" `Quick
      test_v1_version_mismatch;
    Alcotest.test_case "v2 file is Version_mismatch" `Quick
      test_v2_version_mismatch;
    Alcotest.test_case "v3 version mismatch" `Quick test_v3_version_mismatch;
    Alcotest.test_case "read_version probes without loading" `Quick
      test_read_version;
    Alcotest.test_case "missing file is Io_error" `Quick test_missing_file;
    Alcotest.test_case "bad magic" `Quick test_bad_magic;
    Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
    Alcotest.test_case "corrupt payload" `Quick test_corrupt_payload;
    Alcotest.test_case "header capacity is checksummed" `Quick
      test_capacity_checksummed;
    Alcotest.test_case "byte flips and truncations safe" `Quick
      test_mutations_are_safe;
    Alcotest.test_case "truncated file" `Quick test_truncated;
    Alcotest.test_case "truncated payload tail" `Quick
      test_truncated_payload_tail;
    Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
    Alcotest.test_case "save leaves no tmp file" `Quick test_save_is_atomic;
    Alcotest.test_case "fold_chunks equivalence" `Quick
      test_fold_chunks_equivalence;
    Alcotest.test_case "hash_string stable" `Quick test_hash_string_stable;
    Alcotest.test_case "invalid word with a valid checksum is Corrupt" `Quick
      test_forged_word_corrupt;
  ]
