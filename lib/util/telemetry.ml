(* The collector is a variant so the disabled case carries no state at
   all: every recording function dispatches on it once and falls through.
   Enabled collectors guard their tables with a mutex (cheap next to the
   simulation work between updates) and keep the span-nesting stack in
   domain-local storage so workers sharing one collector cannot corrupt
   each other's paths. *)

type span_stat = { mutable calls : int; mutable ns : int64 }

type enabled = {
  clock : unit -> int64;
  mutex : Mutex.t;
  spans : (string, span_stat) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  stack_key : string list Domain.DLS.key;
}

type t = Disabled | Enabled of enabled

let null = Disabled

let monotonic_ns () = Monotonic_clock.now ()

let create ?(clock = monotonic_ns) () =
  Enabled
    {
      clock;
      mutex = Mutex.create ();
      spans = Hashtbl.create 32;
      counters = Hashtbl.create 32;
      gauges = Hashtbl.create 16;
      stack_key = Domain.DLS.new_key (fun () -> []);
    }

let enabled = function Disabled -> false | Enabled _ -> true

let now_ns = function Disabled -> 0L | Enabled e -> e.clock ()

let record_span e path dt =
  Mutex.protect e.mutex (fun () ->
      match Hashtbl.find_opt e.spans path with
      | Some s ->
          s.calls <- s.calls + 1;
          s.ns <- Int64.add s.ns dt
      | None -> Hashtbl.add e.spans path { calls = 1; ns = dt })

let span t name f =
  match t with
  | Disabled -> f ()
  | Enabled e -> (
      let stack = Domain.DLS.get e.stack_key in
      let path =
        match stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
      in
      Domain.DLS.set e.stack_key (path :: stack);
      let t0 = e.clock () in
      let finish () =
        record_span e path (Int64.sub (e.clock ()) t0);
        Domain.DLS.set e.stack_key stack
      in
      match f () with
      | v ->
          finish ();
          v
      | exception ex ->
          finish ();
          raise ex)

let time_ns t path dt =
  match t with
  | Disabled -> ()
  | Enabled e ->
      Mutex.protect e.mutex (fun () ->
          match Hashtbl.find_opt e.spans path with
          | Some s ->
              (* An externally timed interval still counts one call. *)
              s.calls <- s.calls + 1;
              s.ns <- Int64.add s.ns dt
          | None -> Hashtbl.add e.spans path { calls = 1; ns = dt })

let add t ?(n = 1) name =
  match t with
  | Disabled -> ()
  | Enabled e ->
      Mutex.protect e.mutex (fun () ->
          match Hashtbl.find_opt e.counters name with
          | Some r -> r := !r + n
          | None -> Hashtbl.add e.counters name (ref n))

let set_gauge t name v =
  match t with
  | Disabled -> ()
  | Enabled e ->
      Mutex.protect e.mutex (fun () ->
          match Hashtbl.find_opt e.gauges name with
          | Some r -> r := v
          | None -> Hashtbl.add e.gauges name (ref v))

let counter_value t name =
  match t with
  | Disabled -> 0
  | Enabled e ->
      Mutex.protect e.mutex (fun () ->
          match Hashtbl.find_opt e.counters name with
          | Some r -> !r
          | None -> 0)

let span_stat t path =
  match t with
  | Disabled -> None
  | Enabled e ->
      Mutex.protect e.mutex (fun () ->
          Option.map
            (fun s -> (s.calls, s.ns))
            (Hashtbl.find_opt e.spans path))

let span_ns t path =
  match span_stat t path with Some (_, ns) -> ns | None -> 0L

let span_calls t path =
  match span_stat t path with Some (calls, _) -> calls | None -> 0

let gauge_rate t ~name ~counter ~span =
  match t with
  | Disabled -> ()
  | Enabled _ ->
      let ns = span_ns t span in
      if Int64.compare ns 0L > 0 then
        set_gauge t name
          (float_of_int (counter_value t counter)
          /. (Int64.to_float ns /. 1e9))

let sorted_bindings table =
  let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let schema_version = 1

let to_json t =
  let spans, counters, gauges =
    match t with
    | Disabled -> ([], [], [])
    | Enabled e ->
        Mutex.protect e.mutex (fun () ->
            ( List.map
                (fun (path, (s : span_stat)) ->
                  ( path,
                    Json.Obj
                      [
                        ("calls", Json.Int s.calls);
                        ("seconds", Json.Float (Int64.to_float s.ns /. 1e9));
                      ] ))
                (sorted_bindings e.spans),
              List.map
                (fun (name, r) -> (name, Json.Int !r))
                (sorted_bindings e.counters),
              List.map
                (fun (name, r) -> (name, Json.Float !r))
                (sorted_bindings e.gauges) ))
  in
  Json.Obj
    [
      ("schema", Json.Str "dvf-telemetry");
      ("schema_version", Json.Int schema_version);
      ("spans", Json.Obj spans);
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
    ]

let validate doc =
  let ( let* ) = Result.bind in
  let section name check =
    match Json.member name doc with
    | Some (Json.Obj members) ->
        List.fold_left
          (fun acc (k, v) ->
            let* () = acc in
            if check v then Ok ()
            else Error (Printf.sprintf "%s/%s has the wrong type" name k))
          (Ok ()) members
    | Some _ -> Error (Printf.sprintf "%S is not an object" name)
    | None -> Error (Printf.sprintf "missing %S" name)
  in
  let* () =
    match Json.member "schema" doc with
    | Some (Json.Str "dvf-telemetry") -> Ok ()
    | _ -> Error "missing or wrong \"schema\""
  in
  let* () =
    match Json.member "schema_version" doc with
    | Some (Json.Int v) when v = schema_version -> Ok ()
    | Some (Json.Int v) ->
        Error (Printf.sprintf "unsupported schema_version %d" v)
    | _ -> Error "missing \"schema_version\""
  in
  let* () =
    section "spans" (fun v ->
        match (Json.member "calls" v, Json.member "seconds" v) with
        | Some (Json.Int _), Some (Json.Float _) -> true
        | _ -> false)
  in
  let* () =
    section "counters" (function Json.Int _ -> true | _ -> false)
  in
  section "gauges" (function Json.Float _ -> true | _ -> false)

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json t)))
