(* Helpers shared by the suites that build tapes from event lists. *)

module Mt = Memtrace

(* Record one decoded event through the tape's capture entry point. *)
let append_event tape (e : Mt.Event.t) =
  Mt.Tape.append tape ~owner:e.owner ~write:e.write ~addr:e.addr ~size:e.size

let tape_of_events ?chunk_events events =
  let tape = Mt.Tape.create ?chunk_events () in
  List.iter (append_event tape) events;
  tape

(* Replay a captured tape into a fresh cache of geometry [cfg] through the
   packed walk, then flush it so every dirty line's writeback counts. *)
let simulate cfg tape =
  let cache = Cachesim.Cache.create cfg in
  Mt.Tape.replay_fused tape [| cache |];
  Cachesim.Cache.flush cache;
  cache
