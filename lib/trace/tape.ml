(* A captured trace lives in chunks of one unboxed [int] array: one
   packed event word ([Cachesim.Cache.pack]) per event.  Chunks are
   fixed-size (default 65536 events = one 512 KiB array, far past the
   minor-heap threshold, so capture never churns the minor collector)
   and are only ever appended to.  Kernels write into the head chunk
   directly — through [append], or through a tracked array's element
   range ([elems]) — with no per-event record and no intermediate
   buffer.  Captured and loaded tapes hold the same chunks: [Tape_io]
   decodes a file straight into them ([append_chunk]).

   A chunk is a [Cachesim.Cache.Words.t]: [append] fills it through
   [pack], an element range writes words checked when it was made, and
   [append_chunk] checks the array it adopts, so every word of a tape is
   valid from the moment it enters it, and the replays below walk
   chunks with no per-walk word check.

   The head buffer is the same for the tape's whole life: retiring a
   full head moves its words into a new chunk ([Words.swap]) rather
   than replacing it, so an element range made once writes into the
   head forever.  The tape's length is therefore read off its chunks,
   not kept beside them. *)

module Words = Cachesim.Cache.Words

type chunk = Words.t

type t = {
  chunk_capacity : int;
  mutable filled : chunk list; (* full chunks, most recent first *)
  mutable filled_count : int; (* List.length filled, tracked incrementally *)
  head : chunk; (* the partially filled chunk every write goes to *)
}

let default_chunk_events = 65536
let bytes_per_event = Sys.word_size / 8

let create ?(chunk_events = default_chunk_events) () =
  if chunk_events <= 0 then
    invalid_arg
      (Printf.sprintf "Tape.create: chunk_events must be positive (got %d)"
         chunk_events);
  {
    chunk_capacity = chunk_events;
    filled = [];
    filled_count = 0;
    head = Words.create chunk_events;
  }

let length t = (t.filled_count * t.chunk_capacity) + Words.length t.head
let chunk_events t = t.chunk_capacity

(* [filled_count] is maintained on every chunk retirement; telemetry
   gauges sample these per chunk, so recomputing [List.length t.filled]
   here used to make capture quadratic in tape length. *)
let chunk_count t = t.filled_count + if Words.length t.head > 0 then 1 else 0
let allocated_bytes t = (t.filled_count + 1) * t.chunk_capacity * bytes_per_event

let retire_head t =
  let c = Words.create t.chunk_capacity in
  Words.swap c t.head;
  t.filled <- c :: t.filled;
  t.filled_count <- t.filled_count + 1

(* Validate before touching any state, so a rejected event leaves the
   tape exactly as it was (a full head is not retired for it). *)
let append t ~owner ~write ~addr ~size =
  if addr < 0 then invalid_arg "Tape.append: negative address";
  if Words.length t.head = t.chunk_capacity then begin
    ignore (Cachesim.Cache.pack ~owner ~write ~addr ~size : int);
    retire_head t
  end;
  Words.add t.head ~owner ~write ~addr ~size

let elems t ~owner ~addr ~size ~count =
  Words.elems t.head ~owner ~addr ~size ~count ~on_full:(fun () ->
      retire_head t)

(* Chunk adoption (the [Tape_io] load path): the arrays are checked and
   become the tape's own storage, full chunks retired as captured ones
   are and a partial one becoming the appendable head. *)
let append_chunk t ~events ~len =
  if Array.length events <> t.chunk_capacity then
    invalid_arg
      (Printf.sprintf "Tape.append_chunk: %d-word array (chunk capacity %d)"
         (Array.length events) t.chunk_capacity);
  if len < 0 || len > t.chunk_capacity then
    invalid_arg
      (Printf.sprintf "Tape.append_chunk: bad length %d (capacity %d)" len
         t.chunk_capacity);
  if Words.length t.head > 0 then
    invalid_arg
      "Tape.append_chunk: tape ends in a partial chunk; adopted chunks can \
       only follow full ones";
  let c = Words.adopt events ~len in
  if len = t.chunk_capacity then begin
    t.filled <- c :: t.filled;
    t.filled_count <- t.filled_count + 1
  end
  else if len > 0 then Words.swap c t.head

let materialize (_ : t) = ()

(* Chunks in capture order: [filled] is most-recent-first, then the
   partial head (skipped when empty, so no walk dispatches an empty
   batch). *)
let chunks t =
  List.rev (if Words.length t.head > 0 then t.head :: t.filled else t.filled)

(* Readers get a copy, so no caller can write a word the walks trust. *)
let fold_chunks t ~init ~f =
  let events = Array.make t.chunk_capacity 0 in
  List.fold_left
    (fun acc c ->
      Words.blit c events;
      f acc ~events ~len:(Words.length c))
    init (chunks t)

(* {2 Views and replay}

   A view is one shard's walk of the whole tape: every chunk, with each
   consumer touched only on the lines owned by [shard] of [shards]. *)

type view = { v_chunks : chunk list; v_shards : int; v_shard : int }

let view t ~shards ~shard =
  Cachesim.Cache.check_shards ~shards ~shard;
  { v_chunks = chunks t; v_shards = shards; v_shard = shard }

let partition t (_ : Cachesim.Cache.t array) ~shards =
  Cachesim.Cache.check_shards ~shards ~shard:0;
  Array.init shards (fun shard -> view t ~shards ~shard)

let view_chunks v = List.length v.v_chunks
let view_chunks_skipped (_ : view) = 0

let replay_view v caches =
  List.iter
    (fun c ->
      Array.iter
        (fun cache ->
          Cachesim.Cache.access_words cache c ~shards:v.v_shards
            ~shard:v.v_shard ~fill:Cachesim.Cache.nofeed
            ~spill:Cachesim.Cache.nofeed)
        caches)
    v.v_chunks

let replay_view_hierarchies v hierarchies =
  List.iter
    (fun c ->
      Array.iter
        (fun h ->
          Cachesim.Hierarchy.access_words h c ~shards:v.v_shards
            ~shard:v.v_shard)
        hierarchies)
    v.v_chunks

let replay_view_sweep v sweep =
  List.iter
    (fun c ->
      Cachesim.Sweep.access_words sweep c ~shards:v.v_shards ~shard:v.v_shard)
    v.v_chunks

let replay_fused_sharded t caches ~shards ~shard =
  replay_view (view t ~shards ~shard) caches

let replay_fused t caches = replay_fused_sharded t caches ~shards:1 ~shard:0

let iter t f =
  fold_chunks t ~init:() ~f:(fun () ~events ~len ->
      for i = 0 to len - 1 do
        let w = events.(i) in
        f
          Cachesim.Cache.
            { Event.owner = event_owner w; write = event_write w;
              addr = event_addr w; size = event_size w }
      done)

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc
