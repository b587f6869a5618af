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

(* Rewrite event word [index] of a saved tape file's bytes to [word] and
   re-seal its checksum as [Tape_io] documents it: the FNV-1a-shaped
   [hash_mix h w = (h lxor w) * 0x100000001b3] from 0x3243f6a8885a308,
   over every header byte but the checksum's own eight (offset 24), then
   over the event words.  The result is a forged file, not a damaged
   one: only the word check can refuse it. *)
let forge_event_word b ~index ~word =
  let total = Int64.to_int (Bytes.get_int64_le b 16) in
  let payload = Bytes.length b - (8 * total) in
  Bytes.set_int64_le b (payload + (8 * index)) (Int64.of_int word);
  let mix h w = (h lxor w) * 0x100000001b3 in
  let h = ref 0x3243f6a8885a308 in
  for i = 0 to payload - 1 do
    if i < 24 || i >= 32 then h := mix !h (Char.code (Bytes.get b i))
  done;
  for i = 0 to total - 1 do
    h := mix !h (Int64.to_int (Bytes.get_int64_le b (payload + (8 * i))))
  done;
  Bytes.set_int64_le b 24 (Int64.of_int !h)

(* Run the dvf binary on [args]: exit status, stdout and stderr; [None]
   when the binary is not built.  The suite runs one directory below the
   repository root, next to the built [bin/]. *)
let run_dvf args =
  let exe = "../bin/dvf_cli.exe" in
  if not (Sys.file_exists exe) then None
  else begin
    let out, inp, err =
      Unix.open_process_args_full exe (Array.of_list (exe :: args))
        (Unix.environment ())
    in
    close_out inp;
    let stdout = In_channel.input_all out in
    let stderr = In_channel.input_all err in
    let status =
      match Unix.close_process_full (out, inp, err) with
      | Unix.WEXITED n -> n
      | _ -> -1
    in
    Some (status, stdout, stderr)
  end
