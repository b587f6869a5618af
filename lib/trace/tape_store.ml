(* Content-addressed on-disk tape cache.  An entry's file name is
   derived deterministically from its key — sanitized workload name plus
   a 16-hex-digit hash of (format version, workload, size, seed) — so a
   lookup is a single path probe, and bumping [Tape_io.format_version]
   retires every old entry by construction (their names no longer match
   any key this build computes; [gc] reaps them).  Entries that do exist
   but fail to load — corrupt, stale version, or provenance that does
   not match the key (a hash collision or a renamed file) — are evicted,
   never trusted: the store recaptures instead. *)

module Telemetry = Dvf_util.Telemetry

type t = { dir : string; telemetry : Telemetry.t }

type key = { workload : string; size : string; seed : int }

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let create ?(telemetry = Telemetry.null) ~dir () =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    invalid_arg ("Tape_store.create: not a directory: " ^ dir);
  { dir; telemetry }

let dir t = t.dir
let suffix = ".dvftape"

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    name

let key_hash key =
  Tape_io.hash_string
    (Printf.sprintf "v%d|%s|%s|%d" Tape_io.format_version key.workload
       key.size key.seed)

let filename key =
  Printf.sprintf "%s-%016Lx%s" (sanitize key.workload)
    (Int64.of_int (key_hash key))
    suffix

let path t key = Filename.concat t.dir (filename key)

let file_bytes path =
  match open_in_bin path with
  | exception Sys_error _ -> 0
  | ic ->
      let n = in_channel_length ic in
      close_in_noerr ic;
      n

let count t name n = Telemetry.add t.telemetry ~n name

let evict t path =
  (try Sys.remove path with Sys_error _ -> ());
  count t "store/evictions" 1

let meta_matches (m : Tape_io.meta) key =
  m.workload = key.workload && m.size = key.size && m.seed = key.seed

(* A missing file is a plain miss; anything else untrustworthy about an
   existing file gets it evicted so the caller recaptures over it. *)
let timed_load t p =
  let start = Telemetry.now_ns t.telemetry in
  let r = Tape_io.load p in
  Telemetry.time_ns t.telemetry "store/load_ns"
    (Int64.sub (Telemetry.now_ns t.telemetry) start);
  r

let find t key =
  let p = path t key in
  if not (Sys.file_exists p) then None
  else
    let bytes = file_bytes p in
    match timed_load t p with
    | Ok (meta, registry, tape) when meta_matches meta key ->
        count t "store/load_bytes" bytes;
        (* Touch the entry so [gc ~max_bytes] evicts least-recently-used
           first; a store that cannot be touched (read-only) still
           serves. *)
        (try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ());
        Some (registry, tape)
    | Ok _ | Error (Tape_io.Bad_magic | Version_mismatch _ | Corrupt _) ->
        evict t p;
        None
    | Error (Io_error _) -> None

let save t key ~registry ~tape =
  let p = path t key in
  Tape_io.save ~path:p
    ~meta:{ workload = key.workload; size = key.size; seed = key.seed }
    ~registry ~tape;
  count t "store/save_bytes" (file_bytes p)

let find_or_capture t key ~capture =
  match find t key with
  | Some (registry, tape) ->
      count t "store/hits" 1;
      (registry, tape, true)
  | None ->
      count t "store/misses" 1;
      let registry, tape = capture () in
      save t key ~registry ~tape;
      (registry, tape, false)

type entry = {
  file : string;
  status :
    [ `Ok of Tape_io.meta | `Stale of int | `Corrupt of string ];
}

let list t =
  Sys.readdir t.dir |> Array.to_list |> List.sort String.compare
  |> List.filter_map (fun file ->
         if not (Filename.check_suffix file suffix) then None
         else
           let p = Filename.concat t.dir file in
           (* The store keys entries on the current format version: any
              other version on disk is a retired entry no lookup will
              ever hit again — label it stale so [gc] reaps it. *)
           let status =
             match Tape_io.read_meta p with
             | Ok meta -> `Ok meta
             | Error (Tape_io.Version_mismatch v) -> `Stale v
             | Error e -> `Corrupt (Tape_io.error_to_string e)
           in
           Some { file; status })

(* Orphaned temporaries: [Tape_io.save] writes [<entry>.<pid>-<n>.tmp]
   (older builds wrote [<entry>.tmp]) and renames it into place, so any
   such file still on disk is the residue of an interrupted save — never
   a live entry (a concurrent save would be racing gc either way, and
   loses nothing but its cache warmth). *)
let is_temp file =
  Filename.check_suffix file ".tmp"
  &&
  let stem = Filename.chop_suffix file ".tmp" in
  Filename.check_suffix stem suffix
  || Filename.check_suffix (Filename.remove_extension stem) suffix

let orphaned_temps t =
  Sys.readdir t.dir |> Array.to_list |> List.sort String.compare
  |> List.filter is_temp

let entry_age_and_size t file =
  match Unix.stat (Filename.concat t.dir file) with
  | st -> Some (st.Unix.st_mtime, st.Unix.st_size)
  | exception Unix.Unix_error _ -> None

let gc ?max_bytes t =
  let bad =
    List.filter_map
      (fun e ->
        match e.status with
        | `Ok _ -> None
        | `Stale _ | `Corrupt _ ->
            evict t (Filename.concat t.dir e.file);
            Some e.file)
      (list t)
  in
  let temps =
    List.map
      (fun file ->
        evict t (Filename.concat t.dir file);
        file)
      (orphaned_temps t)
  in
  let lru =
    match max_bytes with
    | None -> []
    | Some budget ->
        if budget < 0 then
          invalid_arg "Tape_store.gc: max_bytes must be non-negative";
        (* Healthy entries, least-recently-used first (mtime is bumped
           on every [find] hit), name as the deterministic tie-break. *)
        let entries =
          List.filter_map
            (fun e ->
              match e.status with
              | `Ok _ ->
                  Option.map
                    (fun (mtime, size) -> (mtime, e.file, size))
                    (entry_age_and_size t e.file)
              | `Stale _ | `Corrupt _ -> None)
            (list t)
          |> List.sort compare
        in
        let total =
          List.fold_left (fun acc (_, _, size) -> acc + size) 0 entries
        in
        let rec drop total = function
          | _ when total <= budget -> []
          | [] -> []
          | (_, file, size) :: rest ->
              evict t (Filename.concat t.dir file);
              file :: drop (total - size) rest
        in
        drop total entries
  in
  bad @ temps @ lru
