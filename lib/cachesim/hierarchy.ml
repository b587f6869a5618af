(* A write-back cache hierarchy: level 1 sees the program's reference
   stream; every deeper level sees only the traffic the level above
   emits — a read fill of the full line on each miss (write-allocate)
   and a write spill on each dirty eviction.  That traffic travels
   through the same packed-event funnel the single-cache path uses
   ([Cache.pack] words in one [Cache.Words.t], valid by construction and
   so walked with no word check), so a level's input is
   indistinguishable from a program trace and each level keeps its own
   [Stats].

   Invariant (checked by the tests): after [flush], a level's accesses
   equal the previous level's misses plus its writebacks.

   With residency accumulators attached ([attach_residency]) the funnel
   also carries logical time: each queued fill/spill is stamped with the
   emitting cache's event clock ([q_times]), and deeper levels replay
   their input through the explicitly-timed walks so a line's clean and
   dirty phases at L2 are measured on the *program's* event axis, not
   L2's own (much sparser) traffic count. *)

type queue = {
  q_words : Cache.Words.t;
  (* Event-time stamps of the queued fills/spills (the emitting cache's
     clock at push time), index for index with [q_words]; only consulted
     when [timed]. *)
  q_times : int array;
}

type t = {
  caches : Cache.t array;
  (* queues.(i) buffers the traffic flowing from level i+1 to level i+2;
     length = depth - 1. *)
  queues : queue array;
  line : int;
  funnel_events : int;
  (* 1-event buffer for the single-event entry point. *)
  scratch : Cache.Words.t;
  mutable timed : bool;
}

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
  if line > Cache.max_size then
    invalid_arg
      (Printf.sprintf "Hierarchy.create: line size %d above Cache.max_size" line);
  let caches = Array.of_list (List.map Cache.create configs) in
  let queues =
    Array.init
      (Array.length caches - 1)
      (fun _ ->
        {
          q_words = Cache.Words.create funnel_events;
          q_times = Array.make funnel_events 0;
        })
  in
  {
    caches;
    queues;
    line;
    funnel_events;
    scratch = Cache.Words.create 1;
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

(* [feed] drives one level over a packed batch ([walk] runs the level's
   cache with the feed callbacks); misses and dirty evictions are pushed
   (as full-line read fills / write spills) into the queue toward the
   next level, which is drained whenever it fills and recursively fed
   onward.  Only level 1 is sharded: its filter already restricted the
   stream to one shard's lines, and fills/spills stay on those same
   lines, so re-filtering would be redundant — and wrong if a deeper
   level had fewer sets than the effective shard count.  The queues are
   [Cache.Words] built by [pack], so the inner levels walk them with no
   word check; in timed mode they take the queue's stamp column so they
   advance on the program's event axis. *)
let rec feed t ~level ~walk =
  let cache = t.caches.(level) in
  let last = level = Array.length t.caches - 1 in
  let fill, spill =
    if last then (Cache.nofeed, Cache.nofeed)
    else
      ( (fun ~owner ~line -> push t ~level ~owner ~line ~write:false),
        fun ~owner ~line -> push t ~level ~owner ~line ~write:true )
  in
  walk cache ~fill ~spill;
  if not last then flush_queue t ~level

and push t ~level ~owner ~line ~write =
  let q = t.queues.(level) in
  let n = Cache.Words.length q.q_words in
  let n =
    if n = t.funnel_events then begin
      flush_queue t ~level;
      0
    end
    else n
  in
  q.q_times.(n) <- Cache.now t.caches.(level);
  Cache.Words.add q.q_words ~owner ~write ~addr:(line * t.line) ~size:t.line

(* Feeding level [level + 1] pushes only into the queue below it, never
   into this one, so the queue is emptied once its walk is done. *)
and flush_queue t ~level =
  let q = t.queues.(level) in
  if Cache.Words.length q.q_words > 0 then begin
    feed t ~level:(level + 1) ~walk:(fun cache ~fill ~spill ->
        if t.timed then
          Cache.access_words_timed cache q.q_words ~times:q.q_times ~fill
            ~spill
        else Cache.access_words cache q.q_words ~shards:1 ~shard:0 ~fill ~spill);
    Cache.Words.clear q.q_words
  end

(* Level 1 of either entry point.  Shards beyond the effective count own
   no sets at any level. *)
let feed_first t ~shards ~shard walk =
  Cache.check_shards ~shards ~shard;
  let eff = min shards (max_shards t) in
  if shard < eff then
    feed t ~level:0 ~walk:(fun cache ~fill ~spill ->
        walk cache ~shards:eff ~shard ~fill ~spill)

(* The batch is checked before the shard test: a shard that owns no
   set walks nothing, but a bad batch is rejected on every shard, as
   [Cache.access_batch] rejects it. *)
let access_batch t ~events ~pos ~len ~shards ~shard =
  Cache.validate_batch ~events ~pos ~len;
  feed_first t ~shards ~shard (fun cache ->
      Cache.access_batch cache ~events ~pos ~len)

let access_words t words ~shards ~shard =
  feed_first t ~shards ~shard (fun cache -> Cache.access_words cache words)

let access t ~owner ~write ~addr ~size =
  Cache.Words.clear t.scratch;
  Cache.Words.add t.scratch ~owner ~write ~addr ~size;
  access_words t t.scratch ~shards:1 ~shard:0

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
  Array.iter (fun q -> Cache.Words.clear q.q_words) t.queues
