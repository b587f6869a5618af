(* Binary on-disk tape format.  All multi-byte fields are little-endian
   and fixed-width.  Version 4 (written by [save]):

     offset  size  field
     0       8     magic "dvftape\n"
     8       4     u32 format version (= 4)
     12      4     u32 chunk capacity in events
     16      8     i64 total event count
     24      8     i64 checksum (see below)
     32      ...   provenance: str workload, str size, i64 seed
     ...     ...   region table: u32 page, u32 stagger, u32 count,
                   then per region: u32 id, str name, i64 base,
                   i64 bytes, u32 elem_size
     ...     ...   payload, chunks in capture order:
                   len x i64 event words ([Cachesim.Cache.pack])

   where [str] is a u32 byte length followed by the raw bytes.  Every
   chunk is full except possibly the last (the tape invariant), so the
   chunk lengths follow from the event count and the chunk capacity, and
   the file is exactly header + 8 bytes per event long.

   The checksum is an FNV-1a-shaped mix over every header byte but its
   own eight, then over the event words in capture order, computed with
   native 63-bit integer arithmetic — deterministic on any 64-bit
   platform, which the 8 B/event format already assumes.  Covering the header means a flipped chunk capacity,
   event count, provenance or region field is refused, not trusted.

   [load] streams the payload one chunk at a time: one read of the
   chunk's bytes, then a single loop that decodes each word, stores it
   and folds it into the checksum, then the chunk's adoption, which
   checks every word.  The tape is handed out only after the whole
   checksum matches and every word is valid, so a corrupt file never
   yields a partial tape.

   Versions 1 to 3 are refused with [Version_mismatch]; the tape store
   treats them as stale entries and recaptures. *)

let magic = "dvftape\n"
let format_version = 4

type meta = { workload : string; size : string; seed : int }

type error =
  | Bad_magic
  | Version_mismatch of int
  | Corrupt of string
  | Io_error of string

let error_to_string = function
  | Bad_magic -> "not a dvf tape file (bad magic)"
  | Version_mismatch v ->
      Printf.sprintf "tape format version %d (this build reads version %d)" v
        format_version
  | Corrupt msg -> "corrupt tape file: " ^ msg
  | Io_error msg -> "tape i/o error: " ^ msg

(* FNV-1a shape over native words; multiplication wraps mod 2^63.  Also
   the hash behind [Tape_store] content addressing. *)
let hash_init = 0x3243f6a8885a308
let hash_prime = 0x100000001b3
let hash_mix h w = (h lxor w) * hash_prime

let hash_string s =
  String.fold_left (fun h c -> hash_mix h (Char.code c)) hash_init s

(* The checksum field's place in the header; the header hash skips it. *)
let checksum_pos = 24

let header_hash header =
  let h = ref hash_init in
  String.iteri
    (fun i c ->
      if i < checksum_pos || i >= checksum_pos + 8 then
        h := hash_mix !h (Char.code c))
    header;
  !h

(* Sanity bounds: a header field past these is corruption, not a big
   tape.  The chunk capacity sizes the loader's allocations before the
   checksum can vouch for it, so it is held to 2^20 events (16 MiB per
   chunk); the store writes 65536. *)
let max_chunk_events = 1 lsl 20
let max_string_len = 1 lsl 20
let max_regions = 1 lsl 20

(* {2 Writing} *)

let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let header_bytes ~meta ~registry ~tape =
  let header = Buffer.create 1024 in
  Buffer.add_string header magic;
  add_u32 header format_version;
  add_u32 header (Tape.chunk_events tape);
  add_i64 header (Tape.length tape);
  add_i64 header 0 (* checksum, patched in by [write_tape] *);
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
    entries;
  Buffer.to_bytes header

(* One pass over the chunks encodes and hashes each word; the checksum
   covers the whole payload, so it is patched into the header last. *)
let write_tape oc ~meta ~registry ~tape =
  let header = header_bytes ~meta ~registry ~tape in
  output_bytes oc header;
  let scratch = Bytes.create (8 * Tape.chunk_events tape) in
  let checksum =
    Tape.fold_chunks tape
      ~init:(header_hash (Bytes.to_string header))
      ~f:(fun h ~events ~len ->
        let h = ref h in
        for i = 0 to len - 1 do
          h := hash_mix !h events.(i);
          Bytes.set_int64_le scratch (8 * i) (Int64.of_int events.(i))
        done;
        output oc scratch 0 (8 * len);
        !h)
  in
  Bytes.set_int64_le scratch 0 (Int64.of_int checksum);
  seek_out oc checksum_pos;
  output oc scratch 0 8

(* Each save writes its own temporary, named after the process and a
   per-process counter, so concurrent writers of one path (processes or
   domains) never rename each other's file away; the last rename wins
   and every rename installs a complete tape. *)
let temp_counter = Atomic.make 0

let temp_path path =
  Printf.sprintf "%s.%d-%d.tmp" path (Unix.getpid ())
    (Atomic.fetch_and_add temp_counter 1)

let save ~path ~meta ~registry ~tape =
  let tmp = temp_path path in
  let oc = open_out_bin tmp in
  (try
     write_tape oc ~meta ~registry ~tape;
     close_out oc;
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e)

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
  if version <> format_version then
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

(* The payload starts where the header ends.  The file size is checked
   against the event count before anything is allocated for it; then
   every chunk is read, decoded and hashed in one pass, and adopted into
   a tape of this call's own while it is still in cache
   ([Tape.append_chunk] checks every word).  The tape is returned only
   once the checksum matches and every word is valid, so a corrupt file
   never yields a partial tape; a damaged file reports its checksum
   mismatch, and an invalid word under a matching checksum (a forged
   file) is [Corrupt] too. *)
let read_payload r ~chunk_events ~total ~stored_checksum =
  let payload_offset = pos_in r.ic in
  let payload_bytes = in_channel_length r.ic - payload_offset in
  if payload_bytes / 8 < total then corrupt "truncated file";
  if payload_bytes <> 8 * total then corrupt "trailing garbage after last chunk";
  seek_in r.ic 0;
  let hash = ref (header_hash (really_input_string r.ic payload_offset)) in
  let buf = Bytes.create (8 * min chunk_events total) in
  let tape = Tape.create ~chunk_events () in
  let invalid = ref None in
  let rec chunks k remaining =
    if remaining > 0 then begin
      let len = min chunk_events remaining in
      read_exact r.ic buf 0 (8 * len);
      let events = Array.make chunk_events 0 in
      let h = ref !hash in
      for i = 0 to len - 1 do
        let w = Int64.to_int (Bytes.get_int64_le buf (8 * i)) in
        Array.unsafe_set events i w;
        h := hash_mix !h w
      done;
      hash := !h;
      (if !invalid = None then
         try Tape.append_chunk tape ~events ~len
         with Invalid_argument _ -> invalid := Some k);
      chunks (k + 1) (remaining - len)
    end
  in
  chunks 0 total;
  if !hash <> stored_checksum then corrupt "checksum mismatch";
  Option.iter (corrupt "invalid event word in chunk %d") !invalid;
  tape

let with_file path f =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io_error msg)
  | ic -> (
      let finally () = close_in_noerr ic in
      match Fun.protect ~finally (fun () -> f (make_reader ic)) with
      | v -> Ok v
      | exception Bad_file e -> Error e
      | exception Sys_error msg -> Error (Io_error msg))

let load path =
  with_file path (fun r ->
      let chunk_events, total, stored_checksum, meta = read_header r in
      let registry = read_regions r in
      let tape = read_payload r ~chunk_events ~total ~stored_checksum in
      (meta, registry, tape))

let read_meta path =
  with_file path (fun r ->
      let _, _, _, meta = read_header r in
      meta)

let read_version path = with_file path read_raw_version
