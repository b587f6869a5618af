(* All geometries of a sweep in one walk.

   The levels are the distinct set counts, ascending.  A set of level
   k+1 maps onto one set of level k (the set counts are powers of two),
   so the lines competing for it are a subset of the lines competing for
   the larger-universe set of level k.  A set holds the [assoc] most
   recently used of its lines, hence whatever level k holds, level k+1
   holds too: the levels holding a line form a suffix [res .. nlevels-1].
   A line's current stay in level k+1 began no later than its stay in
   level k, so a write since the fill into k is a write since the fill
   into k+1: the levels where it is dirty form a suffix
   [dirty .. nlevels-1] too, with [dirty >= res].  Both suffixes are one
   byte per line; [nlevels] means "none".

   Every level sees every reference of the shard in the same order, so
   the global last-use stamp of a line is its LRU stamp in every level.
   A reference to a line with suffix [res] hits in the levels [>= res]
   and misses in the ones below; each of those evicts its set's least
   recently used line, whose suffix (by inclusion it is held at k but not
   below) moves to [k+1], with a writeback when it was dirty at [k].
   Levels keep only tags (line ids) and the filling owners, for the sets
   of the walker's shard alone: the shard bits are the low bits of every
   set index, so [set lsr id_shift] numbers a shard's sets densely.

   Counts are kept per owner as a histogram over [res] (split by the
   write flag) and per (owner, level) writebacks; {!stats} turns them
   into one [Stats.t] per config. *)

type level = {
  set_mask : int;
  tags : int array;  (* slot -> line id, -1 when empty *)
  owners : int array;  (* slot -> owner that filled the line *)
}

type t = {
  level_of : int array;  (* config -> level *)
  sets : int array;  (* distinct set counts, ascending *)
  mutable levels : level array;  (* per set count, built by the first batch *)
  nlevels : int;
  assoc : int;
  line_shift : int;
  mutable pinned : (int * int) option;  (* (eff, shard) of the first batch *)
  mutable id_shift : int;
  (* per line id *)
  mutable stamp : int array;  (* last use, 0 when never used *)
  mutable res : Bytes.t;
  mutable dirty : Bytes.t;
  (* [None]: a line's id is its number divided by eff *)
  mutable ids : (int, int) Hashtbl.t option;
  mutable next_id : int;
  mutable clock : int;  (* line references walked *)
  (* per owner *)
  mutable owner_cap : int;
  mutable hist : int array;  (* ((owner * 2 + write) * (nlevels + 1)) + res *)
  mutable wb : int array;  (* (owner * nlevels) + level *)
}

let log2 n =
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

let create configs =
  let first =
    match configs with
    | [] -> invalid_arg "Sweep.create: no configs"
    | c :: _ -> c
  in
  let line = first.Config.line and assoc = first.Config.associativity in
  List.iter
    (fun (c : Config.t) ->
      if c.line <> line || c.associativity <> assoc then
        invalid_arg
          (Printf.sprintf
             "Sweep.create: %s has line %d, %d-way; %s has line %d, %d-way"
             c.name c.line c.associativity first.name line assoc))
    configs;
  let sets =
    Array.of_list
      (List.sort_uniq compare (List.map (fun (c : Config.t) -> c.sets) configs))
  in
  let level_of_sets s =
    let rec find k = if sets.(k) = s then k else find (k + 1) in
    find 0
  in
  {
    level_of =
      Array.of_list
        (List.map (fun (c : Config.t) -> level_of_sets c.sets) configs);
    sets;
    levels = [||];
    nlevels = Array.length sets;
    assoc;
    line_shift = log2 line;
    pinned = None;
    id_shift = 0;
    stamp = [||];
    res = Bytes.empty;
    dirty = Bytes.empty;
    ids = None;
    next_id = 0;
    clock = 0;
    owner_cap = 0;
    hist = [||];
    wb = [||];
  }

let renumbered t = t.ids <> None

(* Per-line tables cover ids [0, n). *)
let reserve t id =
  let n = Array.length t.stamp in
  if id >= n then begin
    let n' = max (id + 1) (max 1024 (2 * n)) in
    let none = Char.chr t.nlevels in
    let grow b =
      let b' = Bytes.make n' none in
      Bytes.blit b 0 b' 0 n;
      b'
    in
    let stamp = Array.make n' 0 in
    Array.blit t.stamp 0 stamp 0 n;
    t.stamp <- stamp;
    t.res <- grow t.res;
    t.dirty <- grow t.dirty
  end

let dense_floor = 1 lsl 16

(* The id of [key] (a line number divided by eff) when the fast path
   [key < Array.length t.stamp] does not apply.  Dense ids may reach
   twice the references walked so far; a key beyond that switches to
   first-touch renumbering, keeping every id already handed out. *)
let rec slow_id t key =
  match t.ids with
  | Some ids -> (
      match Hashtbl.find_opt ids key with
      | Some id -> id
      | None ->
          let id = t.next_id in
          t.next_id <- id + 1;
          reserve t id;
          Hashtbl.add ids key id;
          id)
  | None when key < max dense_floor (2 * t.clock) ->
      reserve t key;
      key
  | None ->
      let ids = Hashtbl.create 1024 in
      Array.iteri (fun id s -> if s > 0 then Hashtbl.add ids id id) t.stamp;
      t.next_id <- Array.length t.stamp;
      t.ids <- Some ids;
      slow_id t key

let grow_owners t owner =
  let n = t.owner_cap in
  let n' = max (owner + 1) (2 * n) in
  let grow a per =
    let a' = Array.make (n' * per) 0 in
    Array.blit a 0 a' 0 (n * per);
    a'
  in
  t.hist <- grow t.hist (2 * (t.nlevels + 1));
  t.wb <- grow t.wb t.nlevels;
  t.owner_cap <- n'

(* The walk of a checked range: [access_batch] validated the words,
   [access_words] got them valid by construction. *)
let walk t ~events ~pos ~len ~shards ~shard =
  let eff = min shards t.sets.(0) in
  (match t.pinned with
  | Some (e, s) when e = eff && s = shard -> ()
  | Some (e, s) ->
      invalid_arg
        (Printf.sprintf
           "Sweep.access_batch: walker serves shard %d of %d, not %d of %d" s e
           shard eff)
  | None ->
      t.pinned <- Some (eff, shard);
      t.id_shift <- log2 eff;
      t.levels <-
        Array.map
          (fun s ->
            let slots = s / eff * t.assoc in
            {
              set_mask = s - 1;
              tags = Array.make slots (-1);
              owners = Array.make slots 0;
            })
          t.sets);
  if shard < eff then begin
    let mask = eff - 1
    and shift = t.line_shift
    and id_shift = t.id_shift
    and nl = t.nlevels
    and ca = t.assoc
    and levels = t.levels in
    for i = pos to pos + len - 1 do
      let w = Array.unsafe_get events i in
      let owner = Cache.event_owner w in
      if owner >= t.owner_cap then grow_owners t owner;
      let write = Cache.event_write w in
      let counts = ((owner * 2) + Bool.to_int write) * (nl + 1) in
      let addr = Cache.event_addr w in
      let first = addr lsr shift in
      let last = (addr + Cache.event_size w - 1) lsr shift in
      for line = first to last do
        if line land mask = shard then begin
          let key = line lsr id_shift in
          let id =
            match t.ids with
            | None when key < Array.length t.stamp -> key
            | _ -> slow_id t key
          in
          let stamp = t.stamp and res = t.res and dirty = t.dirty in
          let m = Char.code (Bytes.unsafe_get res id) in
          for k = 0 to m - 1 do
            let lv = Array.unsafe_get levels k in
            let tags = lv.tags in
            let base = ((line land lv.set_mask) lsr id_shift) * ca in
            let limit = base + ca in
            (* the first empty way, else the least recently used one *)
            let victim = ref base and oldest = ref max_int and w = ref base in
            while !w < limit do
              let tag = Array.unsafe_get tags !w in
              if tag < 0 then begin
                victim := !w;
                w := limit
              end
              else begin
                let s = Array.unsafe_get stamp tag in
                if s < !oldest then begin
                  oldest := s;
                  victim := !w
                end;
                incr w
              end
            done;
            let v = !victim in
            let tag = Array.unsafe_get tags v in
            if tag >= 0 then begin
              Bytes.unsafe_set res tag (Char.unsafe_chr (k + 1));
              if Char.code (Bytes.unsafe_get dirty tag) <= k then begin
                Bytes.unsafe_set dirty tag (Char.unsafe_chr (k + 1));
                let c = (Array.unsafe_get lv.owners v * nl) + k in
                t.wb.(c) <- t.wb.(c) + 1
              end
            end;
            Array.unsafe_set tags v id;
            Array.unsafe_set lv.owners v owner
          done;
          Bytes.unsafe_set res id '\000';
          if write then Bytes.unsafe_set dirty id '\000';
          t.clock <- t.clock + 1;
          Array.unsafe_set stamp id t.clock;
          t.hist.(counts + m) <- t.hist.(counts + m) + 1
        end
      done
    done
  end

let access_batch t ~events ~pos ~len ~shards ~shard =
  Cache.check_shards ~shards ~shard;
  Cache.validate_batch ~events ~pos ~len;
  walk t ~events ~pos ~len ~shards ~shard

let access_words t words ~shards ~shard =
  Cache.check_shards ~shards ~shard;
  walk t ~events:(Cache.Words.unsafe_events words) ~pos:0
    ~len:(Cache.Words.length words) ~shards ~shard

let flush t =
  let nl = t.nlevels in
  Array.iteri
    (fun k lv ->
      Array.iteri
        (fun v tag ->
          if tag >= 0 && Char.code (Bytes.get t.dirty tag) <= k then begin
            let c = (lv.owners.(v) * nl) + k in
            t.wb.(c) <- t.wb.(c) + 1
          end)
        lv.tags)
    t.levels;
  let none = Char.chr nl in
  Array.iter
    (fun lv ->
      Array.iteri
        (fun v tag ->
          if tag >= 0 then begin
            Bytes.set t.res tag none;
            Bytes.set t.dirty tag none;
            lv.tags.(v) <- -1
          end)
        lv.tags)
    t.levels

let stats t =
  let nl = t.nlevels in
  let level_stats k =
    let s = Stats.create () in
    for owner = 0 to t.owner_cap - 1 do
      (* references of [owner] with the given write flag whose suffix
         started at a level in [lo, hi] *)
      let count write lo hi =
        let base = ((owner * 2) + write) * (nl + 1) in
        let n = ref 0 in
        for m = lo to hi do
          n := !n + t.hist.(base + m)
        done;
        !n
      in
      let reads = count 0 0 nl and writes = count 1 0 nl in
      let hits = count 0 0 k + count 1 0 k in
      let writebacks = t.wb.((owner * nl) + k) in
      if reads + writes + writebacks > 0 then
        Stats.add s ~owner
          { reads; writes; hits; misses = reads + writes - hits; writebacks }
    done;
    s
  in
  Array.to_list (Array.map level_stats t.level_of)
