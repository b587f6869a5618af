(* A write-back cache hierarchy: level 1 sees the program's reference
   stream; every deeper level sees only the traffic the level above
   emits — a read fill of the full line on each miss (write-allocate)
   and a write spill on each dirty eviction.  That traffic travels
   through the same packed-event funnel the single-cache path uses
   ([Cache.pack_access] words in columnar addr/meta buffers), so a
   level's input is indistinguishable from a program trace and each
   level keeps its own [Stats].

   Invariant (checked by the tests): after [flush], a level's accesses
   equal the previous level's misses plus its writebacks.

   With residency accumulators attached ([attach_residency]) the funnel
   also carries logical time: each queued fill/spill is stamped with the
   emitting cache's event clock ([q_times]), and deeper levels replay
   their input through the explicitly-timed walks so a line's clean and
   dirty phases at L2 are measured on the *program's* event axis, not
   L2's own (much sparser) traffic count. *)

type queue = {
  q_addrs : int array;
  q_metas : int array;
  (* Event-time stamps of the queued fills/spills (the emitting cache's
     clock at push time); only consulted when [timed]. *)
  q_times : int array;
  mutable q_len : int;
}

type t = {
  caches : Cache.t array;
  (* queues.(i) buffers the traffic flowing from level i+1 to level i+2;
     length = depth - 1. *)
  queues : queue array;
  line : int;
  line_shift : int;
  funnel_events : int;
  (* 1-element scratch for the single-event entry point. *)
  scratch_addr : int array;
  scratch_meta : int array;
  mutable timed : bool;
}

let log2 n =
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

let create ?(funnel_events = 4096) configs =
  if configs = [] then invalid_arg "Hierarchy.create: no levels";
  if funnel_events <= 0 then
    invalid_arg
      (Printf.sprintf "Hierarchy.create: funnel_events must be positive (got %d)"
         funnel_events);
  let line = (List.hd configs).Config.line in
  List.iteri
    (fun i (c : Config.t) ->
      if c.line <> line then
        invalid_arg
          (Printf.sprintf
             "Hierarchy.create: level %d line size %d differs from level 1's \
              %d (all levels must share one line size)"
             (i + 1) c.line line))
    configs;
  let caches = Array.of_list (List.map Cache.create configs) in
  let queues =
    Array.init
      (Array.length caches - 1)
      (fun _ ->
        {
          q_addrs = Array.make funnel_events 0;
          q_metas = Array.make funnel_events 0;
          q_times = Array.make funnel_events 0;
          q_len = 0;
        })
  in
  {
    caches;
    queues;
    line;
    line_shift = log2 line;
    funnel_events;
    scratch_addr = [| 0 |];
    scratch_meta = [| 0 |];
    timed = false;
  }

let depth t = Array.length t.caches
let level_cache t i =
  if i < 0 || i >= depth t then
    invalid_arg
      (Printf.sprintf "Hierarchy.level_cache: level %d out of range (0..%d)" i
         (depth t - 1))
  else t.caches.(i)

let configs t = Array.to_list (Array.map Cache.config t.caches)

let attach_residency t residencies =
  if Array.length residencies <> depth t then
    invalid_arg
      (Printf.sprintf
         "Hierarchy.attach_residency: %d accumulators for %d levels"
         (Array.length residencies) (depth t));
  Array.iteri
    (fun i res -> Cache.attach_residency t.caches.(i) res)
    residencies;
  t.timed <- true

let set_now t time = Array.iter (fun c -> Cache.set_now c time) t.caches

(* The shard partition key is the line number, shared by every level
   (one line size); for the per-set independence argument to hold at
   every level, the effective shard count must divide the set count of
   the *smallest* level. *)
let max_shards t =
  Array.fold_left
    (fun acc c -> min acc (Cache.config c).Config.sets)
    max_int t.caches

(* [feed] drives one level over a packed batch; misses and dirty
   evictions are pushed (as full-line read fills / write spills) into the
   queue toward the next level, which is drained whenever it fills and
   recursively fed onward.  Only level 1 is sharded: its filter already
   restricted the stream to one shard's lines, and fills/spills stay on
   those same lines, so re-filtering would be redundant — and wrong if a
   deeper level had fewer sets than the effective shard count.  In timed
   mode the inner levels take the queue's stamp column ([times]) so they
   advance on the program's event axis. *)
let rec feed t ~level ~addrs ~metas ~times ~pos ~len ~shards ~shard =
  let cache = t.caches.(level) in
  let last = level = Array.length t.caches - 1 in
  let fill, spill =
    if last then (Cache.nofeed, Cache.nofeed)
    else
      ( (fun ~owner ~line -> push t ~level ~owner ~line ~write:false),
        fun ~owner ~line -> push t ~level ~owner ~line ~write:true )
  in
  (match times with
  | Some times ->
      Cache.access_batch_timed cache ~addrs ~metas ~times ~pos ~len ~fill
        ~spill
  | None ->
      Cache.access_batch cache ~addrs ~metas ~pos ~len ~shards ~shard ~fill
        ~spill);
  if not last then flush_queue t ~level

and push t ~level ~owner ~line ~write =
  let q = t.queues.(level) in
  if q.q_len = t.funnel_events then flush_queue t ~level;
  q.q_addrs.(q.q_len) <- line lsl t.line_shift;
  q.q_metas.(q.q_len) <- Cache.pack_access ~owner ~write ~size:t.line;
  q.q_times.(q.q_len) <- Cache.now t.caches.(level);
  q.q_len <- q.q_len + 1

and flush_queue t ~level =
  let q = t.queues.(level) in
  let len = q.q_len in
  if len > 0 then begin
    (* Reset before feeding: the next level's own spills may re-enter
       [push] for this queue while we are still walking it. *)
    q.q_len <- 0;
    feed t ~level:(level + 1) ~addrs:q.q_addrs ~metas:q.q_metas
      ~times:(if t.timed then Some q.q_times else None)
      ~pos:0 ~len ~shards:1 ~shard:0
  end

let access_batch t ~addrs ~metas ~pos ~len ~shards ~shard =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    invalid_arg
      (Printf.sprintf
         "Hierarchy: shards must be a positive power of two (got %d)" shards);
  if shard < 0 || shard >= shards then
    invalid_arg
      (Printf.sprintf "Hierarchy: shard %d out of range (0..%d)" shard
         (shards - 1));
  let eff = min shards (max_shards t) in
  (* Shards beyond the effective count own no sets at any level. *)
  if shard < eff then
    feed t ~level:0 ~addrs ~metas ~times:None ~pos ~len ~shards:eff ~shard

let access t ~owner ~write ~addr ~size =
  t.scratch_addr.(0) <- addr;
  t.scratch_meta.(0) <- Cache.pack_access ~owner ~write ~size;
  access_batch t ~addrs:t.scratch_addr ~metas:t.scratch_meta ~pos:0 ~len:1
    ~shards:1 ~shard:0

(* Drain level by level: level i's flush spills feed level i+1 before
   level i+1 itself flushes, so end-of-run dirty lines cascade down the
   hierarchy exactly like mid-run evictions do.

   In timed mode the driver pins the clock to the run horizon first
   ([set_now]); draining a queue replays *mid-run* stamps into the next
   level and leaves that level's clock at the last stamp, so each
   level's clock is re-pinned to the horizon immediately before its own
   flush — otherwise a level whose last input predates the horizon
   would close its surviving lines' phases early and undercount
   end-of-run exposure. *)
let flush t =
  let last = Array.length t.caches - 1 in
  let horizon_now = Cache.now t.caches.(0) in
  for level = 0 to last - 1 do
    flush_queue t ~level;
    if t.timed then Cache.set_now t.caches.(level) horizon_now;
    Cache.flush_feed t.caches.(level) ~spill:(fun ~owner ~line ->
        push t ~level ~owner ~line ~write:true);
    flush_queue t ~level
  done;
  if t.timed then Cache.set_now t.caches.(last) horizon_now;
  Cache.flush t.caches.(last)

let invalidate t =
  Array.iter Cache.invalidate t.caches;
  Array.iter (fun q -> q.q_len <- 0) t.queues
