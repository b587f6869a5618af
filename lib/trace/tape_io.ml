(* Binary on-disk tape format.  All multi-byte fields are little-endian
   and fixed-width.  Version 2 (written by [save]):

     offset  size  field
     0       8     magic "dvftape\n"
     8       4     u32 format version (= 2)
     12      4     u32 chunk capacity in events
     16      8     i64 total event count
     24      8     i64 payload checksum (see below)
     32      ...   provenance: str workload, str size, i64 seed
     ...     ...   region table: u32 page, u32 stagger, u32 count,
                   then per region: u32 id, str name, i64 base,
                   i64 bytes, u32 elem_size
     ...     ...   chunk table: u32 chunk count, then per chunk:
                   u32 len, 8 x u32 coverage bitmap words,
                   i64 min granule line, i64 max granule line;
                   then i64 index checksum over the table entries
     ...     ...   u32 pad length, then that many zero bytes, sized so
                   the payload starts 8-byte-aligned in the file
     ...     ...   payload, chunks in capture order:
                   len x i64 addrs, len x i64 metas (no length prefix —
                   lengths live in the chunk table)

   where [str] is a u32 byte length followed by the raw bytes.  Every
   chunk is full except possibly the last (the tape invariant), and the
   loader enforces exactly that, so the chunk count is implied by the
   event count.  The payload checksum is an FNV-1a-shaped mix over the
   event words in capture order (addr then meta per event), computed
   with native 63-bit integer arithmetic — deterministic on any 64-bit
   platform, which the 16 B/event format already assumes; its
   definition (and therefore the stored value for identical events) is
   unchanged from version 1.  The chunk table gets its own checksum so
   the partition index — which decides which chunks a sharded walk may
   skip — is vouched for at load time, before any chunk is adopted.

   Version 2 loads map the (8-byte-aligned, exactly-sized) payload with
   [Unix.map_file] and adopt chunks through
   [Tape.append_deferred_chunk]: the payload checksum is verified over
   the mapping up front — corrupt or truncated files are rejected
   before a single chunk is adopted — and the per-chunk addr/meta [int]
   arrays are only decoded out of the mapping when a walk first touches
   the chunk, so a load is O(header + checksum scan) and chunks every
   shard skips are never decoded at all.  On a big-endian host, or when
   the file cannot be mapped (exotic filesystems), the payload is
   streamed and decoded eagerly instead — same validation, same tape.

   Version 1 files (no chunk table) are refused with [Version_mismatch];
   the tape store treats them as stale entries and recaptures. *)

let magic = "dvftape\n"
let format_version = 2
let oldest_readable_version = 2

type meta = { workload : string; size : string; seed : int }

type error =
  | Bad_magic
  | Version_mismatch of int
  | Corrupt of string
  | Io_error of string

let error_to_string = function
  | Bad_magic -> "not a dvf tape file (bad magic)"
  | Version_mismatch v ->
      Printf.sprintf "tape format version %d (this build reads versions %d..%d)"
        v oldest_readable_version format_version
  | Corrupt msg -> "corrupt tape file: " ^ msg
  | Io_error msg -> "tape i/o error: " ^ msg

(* FNV-1a shape over native words; multiplication wraps mod 2^63.  Also
   the hash behind [Tape_store] content addressing. *)
let hash_init = 0x3243f6a8885a308
let hash_prime = 0x100000001b3
let hash_mix h w = (h lxor w) * hash_prime

let hash_string s =
  String.fold_left (fun h c -> hash_mix h (Char.code c)) hash_init s

let checksum tape =
  Tape.fold_chunks tape ~init:hash_init ~f:(fun h ~addrs ~metas ~len ->
      let h = ref h in
      for i = 0 to len - 1 do
        h := hash_mix (hash_mix !h addrs.(i)) metas.(i)
      done;
      !h)

let index_checksum infos =
  List.fold_left
    (fun h (ci : Tape.chunk_info) ->
      let h = hash_mix h ci.ci_len in
      let h = Array.fold_left hash_mix h ci.ci_coverage in
      hash_mix (hash_mix h ci.ci_min_line) ci.ci_max_line)
    hash_init infos

(* Sanity bounds: a header field past these is corruption, not a big
   tape.  (A chunk capacity of 2^30 events would be a 16 GiB chunk.) *)
let max_chunk_events = 1 lsl 30
let max_string_len = 1 lsl 20
let max_regions = 1 lsl 20

(* {2 Writing} *)

let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_provenance_and_regions header ~meta ~registry =
  add_str header meta.workload;
  add_str header meta.size;
  add_i64 header meta.seed;
  let page, stagger, entries = Region.export registry in
  add_u32 header page;
  add_u32 header stagger;
  add_u32 header (List.length entries);
  List.iter
    (fun (id, name, base, bytes, elem_size) ->
      add_u32 header id;
      add_str header name;
      add_i64 header base;
      add_i64 header bytes;
      add_u32 header elem_size)
    entries

let write_tape oc ~meta ~registry ~tape =
  let infos = Tape.chunk_infos tape in
  let header = Buffer.create 1024 in
  Buffer.add_string header magic;
  add_u32 header format_version;
  add_u32 header (Tape.chunk_events tape);
  add_i64 header (Tape.length tape);
  add_i64 header (checksum tape);
  add_provenance_and_regions header ~meta ~registry;
  add_u32 header (List.length infos);
  List.iter
    (fun (ci : Tape.chunk_info) ->
      add_u32 header ci.Tape.ci_len;
      Array.iter (fun w -> add_u32 header w) ci.Tape.ci_coverage;
      add_i64 header ci.Tape.ci_min_line;
      add_i64 header ci.Tape.ci_max_line)
    infos;
  add_i64 header (index_checksum infos);
  (* Align the payload: after the u32 pad-length field itself. *)
  let pad = (8 - ((Buffer.length header + 4) land 7)) land 7 in
  add_u32 header pad;
  for _ = 1 to pad do Buffer.add_char header '\000' done;
  assert (Buffer.length header land 7 = 0);
  Buffer.output_buffer oc header;
  let scratch = Bytes.create (8 * Tape.chunk_events tape) in
  Tape.fold_chunks tape ~init:() ~f:(fun () ~addrs ~metas ~len ->
      for i = 0 to len - 1 do
        Bytes.set_int64_le scratch (8 * i) (Int64.of_int addrs.(i))
      done;
      output oc scratch 0 (8 * len);
      for i = 0 to len - 1 do
        Bytes.set_int64_le scratch (8 * i) (Int64.of_int metas.(i))
      done;
      output oc scratch 0 (8 * len))

let save ~path ~meta ~registry ~tape =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     write_tape oc ~meta ~registry ~tape;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* {2 Reading} *)

exception Bad_file of error

let corrupt fmt = Printf.ksprintf (fun m -> raise (Bad_file (Corrupt m))) fmt

let read_exact ic b pos len =
  try really_input ic b pos len
  with End_of_file -> corrupt "truncated file"

type reader = { ic : in_channel; word : Bytes.t }

let make_reader ic = { ic; word = Bytes.create 8 }

let read_u32 r =
  read_exact r.ic r.word 0 4;
  Int32.to_int (Bytes.get_int32_le r.word 0) land 0xFFFFFFFF

let read_i64 r =
  read_exact r.ic r.word 0 8;
  let v = Bytes.get_int64_le r.word 0 in
  if v < Int64.of_int min_int || v > Int64.of_int max_int then
    corrupt "64-bit field out of native int range";
  Int64.to_int v

let read_str r =
  let len = read_u32 r in
  if len > max_string_len then corrupt "string length %d out of range" len;
  let b = Bytes.create len in
  read_exact r.ic b 0 len;
  Bytes.unsafe_to_string b

let read_raw_version r =
  let m = Bytes.create (String.length magic) in
  (try really_input r.ic m 0 (String.length magic)
   with End_of_file -> raise (Bad_file Bad_magic));
  if Bytes.to_string m <> magic then raise (Bad_file Bad_magic);
  read_u32 r

let read_header r =
  let version = read_raw_version r in
  if version < oldest_readable_version || version > format_version then
    raise (Bad_file (Version_mismatch version));
  let chunk_events = read_u32 r in
  if chunk_events <= 0 || chunk_events > max_chunk_events then
    corrupt "chunk capacity %d out of range" chunk_events;
  let total = read_i64 r in
  if total < 0 then corrupt "negative event count";
  let stored_checksum = read_i64 r in
  let workload = read_str r in
  let size = read_str r in
  let seed = read_i64 r in
  (chunk_events, total, stored_checksum, { workload; size; seed })

let read_regions r =
  let page = read_u32 r in
  let stagger = read_u32 r in
  let count = read_u32 r in
  if count > max_regions then corrupt "region count %d out of range" count;
  let entries =
    List.init count (fun _ ->
        let id = read_u32 r in
        let name = read_str r in
        let base = read_i64 r in
        let bytes = read_i64 r in
        let elem_size = read_u32 r in
        (id, name, base, bytes, elem_size))
  in
  try Region.restore ~page ~stagger entries
  with Invalid_argument msg -> corrupt "%s" msg

let reject_trailing r =
  match input_char r.ic with
  | _ -> corrupt "trailing garbage after last chunk"
  | exception End_of_file -> ()

(* One v2 chunk-table entry. *)
type table_entry = {
  e_len : int;
  e_coverage : int array;
  e_min_line : int;
  e_max_line : int;
}

let read_chunk_table r ~chunk_events ~total =
  let count = read_u32 r in
  let expected_count = (total + chunk_events - 1) / chunk_events in
  if count <> expected_count then
    corrupt "chunk count %d, expected %d" count expected_count;
  let entries =
    List.init count (fun i ->
        let len = read_u32 r in
        let expected =
          if i < count - 1 then chunk_events
          else total - ((count - 1) * chunk_events)
        in
        if len <> expected then
          corrupt "chunk length %d, expected %d" len expected;
        let coverage = Array.init Tape.coverage_words (fun _ -> read_u32 r) in
        let min_line = read_i64 r in
        let max_line = read_i64 r in
        if min_line < 0 || max_line < min_line then
          corrupt "chunk line range [%d, %d] invalid" min_line max_line;
        { e_len = len; e_coverage = coverage; e_min_line = min_line;
          e_max_line = max_line })
  in
  let stored_index_checksum = read_i64 r in
  let computed =
    List.fold_left
      (fun h e ->
        let h = hash_mix h e.e_len in
        let h = Array.fold_left hash_mix h e.e_coverage in
        hash_mix (hash_mix h e.e_min_line) e.e_max_line)
      hash_init entries
  in
  if computed <> stored_index_checksum then corrupt "chunk index checksum mismatch";
  let pad = read_u32 r in
  if pad > 7 then corrupt "padding length %d out of range" pad;
  if pad > 0 then read_exact r.ic r.word 0 pad;
  entries

let adopt_entries tape entries ~word_at =
  List.fold_left
    (fun base e ->
      let len = e.e_len in
      let decode () =
        let chunk_events = Tape.chunk_events tape in
        let addrs = Array.make chunk_events 0 in
        let metas = Array.make chunk_events 0 in
        for i = 0 to len - 1 do
          addrs.(i) <- word_at (base + i);
          metas.(i) <- word_at (base + len + i)
        done;
        (addrs, metas)
      in
      Tape.append_deferred_chunk tape ~len ~coverage:e.e_coverage
        ~min_line:e.e_min_line ~max_line:e.e_max_line ~decode;
      base + (2 * len))
    0 entries
  |> ignore

(* The v2 mmap path: map the payload (8-aligned by construction, sized
   exactly by the header), verify the payload checksum over the mapping
   — before any chunk is adopted — then register every chunk as a
   deferred decode out of the mapping. *)
let read_chunks_v2_mapped r ~telemetry ~chunk_events ~total ~stored_checksum
    entries ~payload_offset =
  let words = 2 * total in
  let ba =
    Bigarray.array1_of_genarray
      (Unix.map_file
         (Unix.descr_of_in_channel r.ic)
         ~pos:(Int64.of_int payload_offset) Bigarray.int64 Bigarray.c_layout
         false [| words |])
  in
  let hash = ref hash_init in
  let base = ref 0 in
  List.iter
    (fun e ->
      for i = 0 to e.e_len - 1 do
        hash :=
          hash_mix
            (hash_mix !hash
               (Int64.to_int (Bigarray.Array1.unsafe_get ba (!base + i))))
            (Int64.to_int (Bigarray.Array1.unsafe_get ba (!base + e.e_len + i)))
      done;
      base := !base + (2 * e.e_len))
    entries;
  if !hash <> stored_checksum then corrupt "checksum mismatch";
  let tape = Tape.create ~chunk_events () in
  adopt_entries tape entries ~word_at:(fun i ->
      Int64.to_int (Bigarray.Array1.get ba i));
  Dvf_util.Telemetry.add telemetry ~n:(8 * words) "tape/mmap_bytes";
  tape

(* Streamed v2 fallback (big-endian host, or a file [Unix.map_file]
   refuses): same layout, eager decode, same checksum-before-trust —
   chunks are only adopted after the full payload verified. *)
let read_chunks_v2_streamed r ~chunk_events ~stored_checksum entries =
  let scratch = Bytes.create (8 * chunk_events) in
  let hash = ref hash_init in
  let chunks =
    List.map
      (fun e ->
        let read_words () =
          let a = Array.make chunk_events 0 in
          read_exact r.ic scratch 0 (8 * e.e_len);
          for i = 0 to e.e_len - 1 do
            a.(i) <- Int64.to_int (Bytes.get_int64_le scratch (8 * i))
          done;
          a
        in
        let addrs = read_words () in
        let metas = read_words () in
        for i = 0 to e.e_len - 1 do
          hash := hash_mix (hash_mix !hash addrs.(i)) metas.(i)
        done;
        (e, addrs, metas))
      entries
  in
  if !hash <> stored_checksum then corrupt "checksum mismatch";
  reject_trailing r;
  let tape = Tape.create ~chunk_events () in
  List.iter
    (fun (e, addrs, metas) ->
      Tape.append_deferred_chunk tape ~len:e.e_len ~coverage:e.e_coverage
        ~min_line:e.e_min_line ~max_line:e.e_max_line
        ~decode:(fun () -> (addrs, metas)))
    chunks;
  Tape.materialize tape;
  tape

let read_chunks_v2 r ~telemetry ~chunk_events ~total ~stored_checksum =
  let entries = read_chunk_table r ~chunk_events ~total in
  if total = 0 then begin
    if hash_init <> stored_checksum then corrupt "checksum mismatch";
    reject_trailing r;
    Tape.create ~chunk_events ()
  end
  else begin
    let payload_offset = pos_in r.ic in
    if payload_offset land 7 <> 0 then
      corrupt "payload not 8-byte-aligned (offset %d)" payload_offset;
    let expected_size = payload_offset + (8 * 2 * total) in
    let actual = in_channel_length r.ic in
    if actual < expected_size then corrupt "truncated file";
    if actual > expected_size then corrupt "trailing garbage after last chunk";
    if Sys.big_endian then
      read_chunks_v2_streamed r ~chunk_events ~stored_checksum entries
    else
      try
        read_chunks_v2_mapped r ~telemetry ~chunk_events ~total
          ~stored_checksum entries ~payload_offset
      with Unix.Unix_error _ ->
        read_chunks_v2_streamed r ~chunk_events ~stored_checksum entries
  end

let with_file path f =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io_error msg)
  | ic -> (
      let finally () = close_in_noerr ic in
      match Fun.protect ~finally (fun () -> f (make_reader ic)) with
      | v -> Ok v
      | exception Bad_file e -> Error e
      | exception Sys_error msg -> Error (Io_error msg))

let load ?(telemetry = Dvf_util.Telemetry.null) path =
  with_file path (fun r ->
      let chunk_events, total, stored_checksum, meta = read_header r in
      let registry = read_regions r in
      let tape =
        read_chunks_v2 r ~telemetry ~chunk_events ~total ~stored_checksum
      in
      (meta, registry, tape))

let read_meta path =
  with_file path (fun r ->
      let _, _, _, meta = read_header r in
      meta)

let read_version path = with_file path read_raw_version
