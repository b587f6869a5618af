(* The benchmark's own tracing.  Spans are recorded around calls into the
   library's public functions (never from inside the library, and never
   from its Telemetry module), kept in memory, and written out when the
   run ends.  A span knows its parent, so self time — a span's duration
   minus the part of it its children cover — can be computed even when
   the children ran on other domains. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* 0 at the top level *)
  domain : int;
  start : float;  (* seconds, monotonic clock *)
  stop : float;
  counts : (string * float) list;
      (* work counts taken from the call's return value, plus the words
         the calling domain allocated while the span was open *)
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Switched on once, before any domain is spawned. *)
let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 1
let current = Domain.DLS.new_key (fun () -> 0)

(* Names whose spans are no longer recorded: once a workload's own traced
   passes have produced a layer's spans, the probes that cover the other
   layers run that layer's calls untimed. *)
let muted : string list ref = ref []
let is_muted name = List.mem name !muted

(* Gc.counters is per domain, so this counts only the calling domain's
   allocations. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record ?(counts = fun _ -> []) name f =
  if not !enabled || is_muted name then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let words0 = alloc_words () in
    let start = now () in
    let close extra =
      let stop = now () in
      let words = alloc_words () -. words0 in
      Domain.DLS.set current parent;
      let s =
        { id; name; parent; domain = (Domain.self () :> int); start; stop;
          counts = ("alloc_words", words) :: extra }
      in
      Mutex.protect lock (fun () -> recorded := s :: !recorded)
    in
    match f () with
    | v ->
        close (counts v);
        v
    | exception e ->
        close [];
        raise e
  end

(* Pool tasks start with an empty span stack; [within (current_id ())]
   hands them the submitting domain's open span as their parent. *)
let current_id () = Domain.DLS.get current

let within parent f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current parent;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

let mute_seen () =
  muted := List.sort_uniq compare (List.map (fun s -> s.name) (all ()))

let children spans =
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add tbl s.parent s) spans;
  fun id -> Hashtbl.find_all tbl id

(* Duration minus the union of the children's intervals, clipped to the
   span's own interval (children on two domains may overlap). *)
let self_time kids s =
  let intervals =
    List.sort compare
      (List.filter_map
         (fun c ->
           let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
           if b > a then Some (a, b) else None)
         (kids s.id))
  in
  let covered, last =
    List.fold_left
      (fun (acc, (lo, hi)) (a, b) ->
        if a > hi then (acc +. (hi -. lo), (a, b)) else (acc, (lo, Float.max hi b)))
      (0.0, (s.start, s.start))
      intervals
  in
  let covered = covered +. (snd last -. fst last) in
  s.stop -. s.start -. covered

type layer = {
  calls : int;
  self_s : float;
  total_s : float;
  durations : float list;
  sums : (string, float) Hashtbl.t;
}

(* Spans grouped by name: call count, summed self and total time, and
   summed work counts. *)
let layers () =
  let spans = all () in
  let kids = children spans in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let l =
        match Hashtbl.find_opt tbl s.name with
        | Some l -> l
        | None ->
            { calls = 0; self_s = 0.0; total_s = 0.0; durations = [];
              sums = Hashtbl.create 4 }
      in
      List.iter
        (fun (k, v) ->
          Hashtbl.replace l.sums k
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt l.sums k)))
        s.counts;
      Hashtbl.replace tbl s.name
        { l with calls = l.calls + 1; self_s = l.self_s +. self_time kids s;
          total_s = l.total_s +. (s.stop -. s.start);
          durations = (s.stop -. s.start) :: l.durations })
    spans;
  tbl

let write_file path =
  let spans = all () in
  let kids = children spans in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let module J = Dvf_util.Json in
  let span_json s =
    J.Obj
      ([ ("id", J.Int s.id); ("name", J.Str s.name); ("parent", J.Int s.parent);
         ("domain", J.Int s.domain); ("start_s", J.Float (s.start -. t0));
         ("end_s", J.Float (s.stop -. t0)); ("self_s", J.Float (self_time kids s)) ]
      @ List.map (fun (k, v) -> (k, J.Float v)) s.counts)
  in
  let oc = open_out path in
  output_string oc
    (J.to_string ~indent:false (J.Obj [ ("spans", J.List (List.map span_json spans)) ]));
  output_char oc '\n';
  close_out oc
