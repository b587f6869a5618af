module Ap = Access_patterns

(* A replayed reference: element index plus store flag. *)
type ref_stream = { idx : int array; store : bool array }

let stream_refs (s : Ap.Streaming.t) =
  let touched = Ap.Streaming.touched_elements s in
  let idx = Array.init touched (fun i -> i * s.Ap.Streaming.stride) in
  { idx; store = Array.make touched s.Ap.Streaming.writeback }

let template_refs (t : Ap.Template.t) =
  let n = Array.length t.Ap.Template.refs in
  let store =
    match t.Ap.Template.writes with
    | Some w -> Array.copy w
    | None -> Array.make n false
  in
  { idx = Array.copy t.Ap.Template.refs; store }

let full_traverse ~elements =
  { idx = Array.init elements (fun i -> i); store = Array.make elements false }

let concat_streams streams =
  {
    idx = Array.concat (List.map (fun s -> s.idx) streams);
    store = Array.concat (List.map (fun s -> s.store) streams);
  }

let structure_elem_size (spec : Ap.App_spec.t) (s : Ap.App_spec.structure) =
  let of_pattern = function
    | Ap.Pattern.Stream st -> Some st.Ap.Streaming.elem_size
    | Ap.Pattern.Random r -> Some r.Ap.Random_access.elem_size
    | Ap.Pattern.Templated t -> Some t.Ap.Template.elem_size
  in
  let of_occurrence = function
    | Ap.Compose.Stream st -> Some st.Ap.Streaming.elem_size
    | Ap.Compose.Tmpl t -> Some t.Ap.Template.elem_size
    | Ap.Compose.Reuse_only -> None
  in
  let from_composition () =
    match spec.Ap.App_spec.composition with
    | None -> None
    | Some c ->
        List.find_map
          (fun phase ->
            List.find_map
              (fun (o : Ap.Compose.occurrence) ->
                if o.Ap.Compose.structure = s.Ap.App_spec.name then
                  of_occurrence o.Ap.Compose.pattern
                else None)
              phase)
          c.Ap.Compose.order
  in
  match s.Ap.App_spec.pattern with
  | Some p -> ( match of_pattern p with Some e -> e | None -> 8)
  | None -> ( match from_composition () with Some e -> e | None -> 8)

(* One region per structure, laid out as the trace lays them out, each
   checked to fit a packed event ([Cachesim.Cache.pack]).  Clamping the
   byte count keeps the layout arithmetic from overflowing; a clamped
   structure ends past [max_addr] and is refused. *)
let register_regions (spec : Ap.App_spec.t) registry =
  let module C = Cachesim.Cache in
  let fail name fmt =
    Printf.ksprintf (fun m -> invalid_arg (name ^ ": " ^ m)) fmt
  in
  List.map
    (fun (s : Ap.App_spec.structure) ->
      let name = s.Ap.App_spec.name and bytes = s.Ap.App_spec.bytes in
      let elem_size = structure_elem_size spec s in
      if elem_size < 1 || elem_size > C.max_size then
        fail name "element size %d outside the traceable 1..%d" elem_size
          C.max_size;
      let elements =
        max 1 ((min bytes (C.max_addr + 1) + elem_size - 1) / elem_size)
      in
      let r = Memtrace.Region.register registry ~name ~elements ~elem_size in
      if r.Memtrace.Region.id > C.max_owner then
        fail name "owner id %d past the traceable %d" r.id C.max_owner;
      if r.base + r.bytes - 1 > C.max_addr then
        fail name "%d bytes at address %d end past the traceable address %d"
          bytes r.base C.max_addr;
      (name, r))
    spec.Ap.App_spec.structures

let check spec = ignore (register_regions spec (Memtrace.Region.create ()))

let emit tape (region : Memtrace.Region.region) stream =
  let elements = max 1 (region.Memtrace.Region.bytes / region.elem_size) in
  let size = region.Memtrace.Region.elem_size in
  Array.iteri
    (fun i e ->
      let addr = Memtrace.Region.elem_addr region (e mod elements) in
      Memtrace.Tape.append tape ~owner:region.Memtrace.Region.id ~write:false
        ~addr ~size;
      if stream.store.(i) then
        Memtrace.Tape.append tape ~owner:region.Memtrace.Region.id ~write:true
          ~addr ~size)
    stream.idx

let replay_random tape region (r : Ap.Random_access.t) =
  let elements = r.Ap.Random_access.elements in
  (* The model assumes every element is traversed once (construction)
     before the random visits begin. *)
  emit tape region (full_traverse ~elements);
  let rng = Dvf_util.Rng.create (42 + region.Memtrace.Region.id) in
  let run = max 1 r.Ap.Random_access.run_length in
  let runs = max 1 (r.Ap.Random_access.visits / run) in
  let size = region.Memtrace.Region.elem_size in
  for _ = 1 to r.Ap.Random_access.iterations do
    for _ = 1 to runs do
      let start = Dvf_util.Rng.int rng elements in
      for k = 0 to run - 1 do
        let addr = Memtrace.Region.elem_addr region ((start + k) mod elements) in
        Memtrace.Tape.append tape ~owner:region.Memtrace.Region.id
          ~write:false ~addr ~size
      done
    done
  done

(* One phase: interleave the occurrences by slicing each occurrence's
   reference stream into [max times] chunks, emitted round-robin. *)
let replay_phase tape lookup (phase : Ap.Compose.phase) =
  let occurrence_stream (o : Ap.Compose.occurrence) =
    let region : Memtrace.Region.region = lookup o.Ap.Compose.structure in
    let elements = max 1 (region.Memtrace.Region.bytes / region.elem_size) in
    let one =
      match o.Ap.Compose.pattern with
      | Ap.Compose.Stream s -> stream_refs s
      | Ap.Compose.Tmpl t -> template_refs t
      | Ap.Compose.Reuse_only -> full_traverse ~elements
    in
    let repeated =
      if o.Ap.Compose.times <= 1 then one
      else concat_streams (List.init o.Ap.Compose.times (fun _ -> one))
    in
    (region, repeated)
  in
  let streams = List.map occurrence_stream phase in
  let slices =
    List.fold_left (fun acc (o : Ap.Compose.occurrence) -> max acc o.times) 1
      phase
  in
  let chunk stream t =
    (* Balanced contiguous slicing: chunk t covers [t*len/slices,
       (t+1)*len/slices). *)
    let len = Array.length stream.idx in
    let lo = t * len / slices and hi = (t + 1) * len / slices in
    {
      idx = Array.sub stream.idx lo (hi - lo);
      store = Array.sub stream.store lo (hi - lo);
    }
  in
  for t = 0 to slices - 1 do
    List.iter
      (fun (region, stream) -> emit tape region (chunk stream t))
      streams
  done

let trace ?(telemetry = Dvf_util.Telemetry.null) (spec : Ap.App_spec.t)
    registry tape =
  Dvf_util.Telemetry.span telemetry "replay" @@ fun () ->
  let events_before = Memtrace.Tape.length tape in
  let regions = register_regions spec registry in
  let lookup name = List.assoc name regions in
  (* Standalone patterns, in declaration order. *)
  List.iter
    (fun (s : Ap.App_spec.structure) ->
      match s.Ap.App_spec.pattern with
      | None -> ()
      | Some (Ap.Pattern.Stream st) ->
          emit tape (lookup s.Ap.App_spec.name) (stream_refs st)
      | Some (Ap.Pattern.Templated t) ->
          emit tape (lookup s.Ap.App_spec.name) (template_refs t)
      | Some (Ap.Pattern.Random r) ->
          replay_random tape (lookup s.Ap.App_spec.name) r)
    spec.Ap.App_spec.structures;
  (* Composition phases. *)
  (match spec.Ap.App_spec.composition with
  | None -> ()
  | Some c ->
      for _ = 1 to c.Ap.Compose.iterations do
        List.iter (replay_phase tape lookup) c.Ap.Compose.order
      done);
  if Dvf_util.Telemetry.enabled telemetry then
    Dvf_util.Telemetry.add telemetry
      ~n:(Memtrace.Tape.length tape - events_before)
      "replay/events"
