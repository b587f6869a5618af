type counters = {
  reads : int;
  writes : int;
  hits : int;
  misses : int;
  writebacks : int;
}

let zero = { reads = 0; writes = 0; hits = 0; misses = 0; writebacks = 0 }

(* Every counter lives in one flat array, [stride] words per owner in
   the order reads, writes, hits, misses, writebacks, so [Cache]'s walk
   bumps them in place without a call per line.  The array only grows:
   an owner's slot, once reserved, stays valid for the record's life. *)
let stride = 5

type t = { mutable counts : int array }

let create () = { counts = Array.make (8 * stride) 0 }
let counts t = t.counts

let reserve t ~owner =
  if owner < 0 then invalid_arg "Stats: negative owner";
  let n = Array.length t.counts / stride in
  if owner >= n then begin
    let counts = Array.make (max (owner + 1) (2 * n) * stride) 0 in
    Array.blit t.counts 0 counts 0 (n * stride);
    t.counts <- counts
  end;
  t.counts

let bump a i = Array.unsafe_set a i (Array.unsafe_get a i + 1)

let record_access t ~owner ~write ~hit =
  let a = reserve t ~owner in
  let base = owner * stride in
  bump a (base + Bool.to_int write);
  bump a (base + if hit then 2 else 3)

let record_writeback t ~owner =
  let a = reserve t ~owner in
  bump a ((owner * stride) + 4)

let add t ~owner (n : counters) =
  let a = reserve t ~owner in
  let base = owner * stride in
  a.(base) <- a.(base) + n.reads;
  a.(base + 1) <- a.(base + 1) + n.writes;
  a.(base + 2) <- a.(base + 2) + n.hits;
  a.(base + 3) <- a.(base + 3) + n.misses;
  a.(base + 4) <- a.(base + 4) + n.writebacks

let slot_counters a owner : counters =
  let base = owner * stride in
  {
    reads = a.(base);
    writes = a.(base + 1);
    hits = a.(base + 2);
    misses = a.(base + 3);
    writebacks = a.(base + 4);
  }

let owner_counters t owner =
  if owner < 0 || owner * stride >= Array.length t.counts then zero
  else slot_counters t.counts owner

let totals t =
  let a = t.counts in
  let sum k =
    let s = ref 0 in
    let i = ref k in
    while !i < Array.length a do
      s := !s + a.(!i);
      i := !i + stride
    done;
    !s
  in
  {
    reads = sum 0;
    writes = sum 1;
    hits = sum 2;
    misses = sum 3;
    writebacks = sum 4;
  }

let main_memory_accesses t owner =
  let c = owner_counters t owner in
  c.misses + c.writebacks

let total_main_memory_accesses t =
  let c = totals t in
  c.misses + c.writebacks

let is_active a owner =
  let base = owner * stride in
  let rec any k = k < stride && (a.(base + k) <> 0 || any (k + 1)) in
  any 0

let owners t =
  let acc = ref [] in
  for owner = (Array.length t.counts / stride) - 1 downto 0 do
    if is_active t.counts owner then acc := owner :: !acc
  done;
  !acc

(* --- immutable snapshots: what consumers outside the simulation loop
   read.  One coherent record per capture instead of piecemeal
   [owner_counters]/[totals] calls against a still-mutating [t]. --- *)

type snapshot = { per_owner : (int * counters) array; totals : counters }

let snapshot t =
  let per_owner =
    Array.of_list
      (List.map (fun o -> (o, slot_counters t.counts o)) (owners t))
  in
  let totals =
    Array.fold_left
      (fun (acc : counters) (_, (c : counters)) ->
        {
          reads = acc.reads + c.reads;
          writes = acc.writes + c.writes;
          hits = acc.hits + c.hits;
          misses = acc.misses + c.misses;
          writebacks = acc.writebacks + c.writebacks;
        })
      zero per_owner
  in
  { per_owner; totals }

module Snapshot = struct
  let totals s = s.totals

  let owners s = Array.to_list (Array.map fst s.per_owner)

  (* [per_owner] is sorted by owner id ([snapshot] builds it from
     [owners t], which is ascending), so lookup is a binary search —
     [Verify.rows_of_snapshot] calls this once per structure per row. *)
  let owner s owner =
    let a = s.per_owner in
    let lo = ref 0 and hi = ref (Array.length a - 1) in
    let found = ref zero in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let o, c = a.(mid) in
      if o = owner then begin
        found := c;
        lo := !hi + 1
      end
      else if o < owner then lo := mid + 1
      else hi := mid - 1
    done;
    !found

  let accesses (c : counters) = c.reads + c.writes

  let main_memory (c : counters) = c.misses + c.writebacks

  let owner_main_memory s o = main_memory (owner s o)

  let total_main_memory s = main_memory s.totals
end

(* Cross-domain aggregation: a parallel sweep runs one cache (and thus one
   stats record) per domain; [merge] folds a worker's counters into an
   accumulator after the domains join.  Addition is commutative, so the
   merged totals are independent of worker scheduling. *)
let merge ~into src =
  let n = Array.length src.counts in
  let a = reserve into ~owner:((n / stride) - 1) in
  for i = 0 to n - 1 do
    a.(i) <- a.(i) + src.counts.(i)
  done

let sum stats =
  let acc = create () in
  List.iter (fun s -> merge ~into:acc s) stats;
  acc

let reset t = Array.fill t.counts 0 (Array.length t.counts) 0
