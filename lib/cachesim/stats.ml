type counters = {
  reads : int;
  writes : int;
  hits : int;
  misses : int;
  writebacks : int;
}

let zero = { reads = 0; writes = 0; hits = 0; misses = 0; writebacks = 0 }

type cell = {
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

type t = { mutable cells : cell array }

let fresh_cell () =
  { reads = 0; writes = 0; hits = 0; misses = 0; writebacks = 0 }

let create () = { cells = Array.init 8 (fun _ -> fresh_cell ()) }

let ensure t owner =
  if owner < 0 then invalid_arg "Stats: negative owner";
  let n = Array.length t.cells in
  if owner >= n then begin
    let n' = max (owner + 1) (2 * n) in
    let cells = Array.init n' (fun i -> if i < n then t.cells.(i) else fresh_cell ()) in
    t.cells <- cells
  end;
  t.cells.(owner)

let record_access t ~owner ~write ~hit =
  let c = ensure t owner in
  if write then c.writes <- c.writes + 1 else c.reads <- c.reads + 1;
  if hit then c.hits <- c.hits + 1 else c.misses <- c.misses + 1

let record_writeback t ~owner =
  let c = ensure t owner in
  c.writebacks <- c.writebacks + 1

let add t ~owner (n : counters) =
  let c = ensure t owner in
  c.reads <- c.reads + n.reads;
  c.writes <- c.writes + n.writes;
  c.hits <- c.hits + n.hits;
  c.misses <- c.misses + n.misses;
  c.writebacks <- c.writebacks + n.writebacks

let counters_of_cell (c : cell) : counters =
  {
    reads = c.reads;
    writes = c.writes;
    hits = c.hits;
    misses = c.misses;
    writebacks = c.writebacks;
  }

let owner_counters t owner =
  if owner < 0 || owner >= Array.length t.cells then zero
  else counters_of_cell t.cells.(owner)

let totals t =
  Array.fold_left
    (fun (acc : counters) (c : cell) ->
      {
        reads = acc.reads + c.reads;
        writes = acc.writes + c.writes;
        hits = acc.hits + c.hits;
        misses = acc.misses + c.misses;
        writebacks = acc.writebacks + c.writebacks;
      })
    zero t.cells

let main_memory_accesses t owner =
  let c = owner_counters t owner in
  c.misses + c.writebacks

let total_main_memory_accesses t =
  let c = totals t in
  c.misses + c.writebacks

let is_empty (c : cell) =
  c.reads = 0 && c.writes = 0 && c.hits = 0 && c.misses = 0 && c.writebacks = 0

let owners t =
  let acc = ref [] in
  Array.iteri (fun i c -> if not (is_empty c) then acc := i :: !acc) t.cells;
  List.rev !acc

(* --- immutable snapshots: what consumers outside the simulation loop
   read.  One coherent record per capture instead of piecemeal
   [owner_counters]/[totals] calls against a still-mutating [t]. --- *)

type snapshot = { per_owner : (int * counters) array; totals : counters }

let snapshot t =
  let per_owner =
    Array.of_list
      (List.map (fun o -> (o, counters_of_cell t.cells.(o))) (owners t))
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
  Array.iteri
    (fun owner (s : cell) ->
      if not (is_empty s) then begin
        let c = ensure into owner in
        c.reads <- c.reads + s.reads;
        c.writes <- c.writes + s.writes;
        c.hits <- c.hits + s.hits;
        c.misses <- c.misses + s.misses;
        c.writebacks <- c.writebacks + s.writebacks
      end)
    src.cells

let sum stats =
  let acc = create () in
  List.iter (fun s -> merge ~into:acc s) stats;
  acc

let reset t =
  Array.iter
    (fun (c : cell) ->
      c.reads <- 0;
      c.writes <- 0;
      c.hits <- 0;
      c.misses <- 0;
      c.writebacks <- 0)
    t.cells
