module Ap = Access_patterns

type kind = Service | Queue | Store

let kind_name = function
  | Service -> "service"
  | Queue -> "queue"
  | Store -> "store"

type component = {
  name : string;
  kind : kind;
  state_bytes : int;
  calls : string list;
}

type endpoint = { endpoint : string; targets : string list; weight : float }

type t = {
  graph_name : string;
  client : string;
  components : component list;
  endpoints : endpoint list;
}

let component ?(kind = Service) ?(calls = []) ~name ~state_bytes () =
  { name; kind; state_bytes; calls }

let endpoint ~name ~weight ~targets = { endpoint = name; targets; weight }

let fail fmt = Printf.ksprintf invalid_arg ("Service_graph.make: " ^^ fmt)

(* --- validation --- *)

let index_of components =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i (c : component) -> Hashtbl.replace tbl c.name i) components;
  fun name -> Hashtbl.find_opt tbl name

let check_components components =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (c : component) ->
      if String.length c.name = 0 then fail "empty component name";
      if Hashtbl.mem seen c.name then
        fail "duplicate component %S" c.name;
      Hashtbl.replace seen c.name ();
      if c.state_bytes < 8 then
        fail "component %S: state_bytes must be >= 8 (got %d)" c.name
          c.state_bytes)
    components;
  List.iter
    (fun (c : component) ->
      List.iter
        (fun callee ->
          if not (Hashtbl.mem seen callee) then
            fail "component %S calls unknown component %S" c.name callee;
          if String.equal callee c.name then
            fail "component %S calls itself" c.name)
        c.calls)
    components

(* DFS three-coloring over the call edges; a gray-to-gray edge is a
   cycle. *)
let check_acyclic components =
  let idx = index_of components in
  let arr = Array.of_list components in
  let color = Array.make (Array.length arr) `White in
  let rec visit i =
    match color.(i) with
    | `Black -> ()
    | `Gray -> fail "call cycle through component %S" arr.(i).name
    | `White ->
        color.(i) <- `Gray;
        List.iter
          (fun callee -> visit (Option.get (idx callee)))
          arr.(i).calls;
        color.(i) <- `Black
  in
  Array.iteri (fun i _ -> visit i) arr

let check_endpoints ~idx endpoints =
  if endpoints = [] then fail "no endpoints declared";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (e : endpoint) ->
      if String.length e.endpoint = 0 then fail "empty endpoint name";
      if Hashtbl.mem seen e.endpoint then
        fail "duplicate endpoint %S" e.endpoint;
      Hashtbl.replace seen e.endpoint ();
      if e.targets = [] then fail "endpoint %S has no targets" e.endpoint;
      List.iter
        (fun t ->
          if idx t = None then
            fail "endpoint %S targets unknown component %S" e.endpoint t)
        e.targets;
      if (not (Float.is_finite e.weight)) || e.weight <= 0.0 then
        fail "endpoint %S: weight must be positive and finite (got %g)"
          e.endpoint e.weight)
    endpoints

(* Reachability from the client with every component alive: indices of
   all components reachable along call edges. *)
let reachable_from ~adjacency start =
  let n = Array.length adjacency in
  let seen = Array.make n false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter go adjacency.(i)
    end
  in
  go start;
  seen

let build_adjacency components =
  let idx = index_of components in
  Array.of_list
    (List.map
       (fun (c : component) ->
         List.map (fun callee -> Option.get (idx callee)) c.calls)
       components)

let make ~name ~client ~components ~endpoints () =
  if String.length name = 0 then fail "empty graph name";
  check_components components;
  check_acyclic components;
  let idx = index_of components in
  (match idx client with
  | Some _ -> ()
  | None -> fail "client %S is not a declared component" client);
  check_endpoints ~idx endpoints;
  let adjacency = build_adjacency components in
  let reach = reachable_from ~adjacency (Option.get (idx client)) in
  List.iter
    (fun (e : endpoint) ->
      List.iter
        (fun t ->
          if not reach.(Option.get (idx t)) then
            fail
              "endpoint %S target %S is not reachable from client %S along \
               call edges"
              e.endpoint t client)
        e.targets)
    endpoints;
  let total = List.fold_left (fun a (e : endpoint) -> a +. e.weight) 0.0 endpoints in
  let endpoints =
    List.map (fun (e : endpoint) -> { e with weight = e.weight /. total }) endpoints
  in
  { graph_name = name; client; components; endpoints }

(* --- lookups --- *)

let component_names t = List.map (fun (c : component) -> c.name) t.components
let endpoint_names t = List.map (fun (e : endpoint) -> e.endpoint) t.endpoints

let touched t (e : endpoint) =
  List.filter
    (fun (c : component) ->
      String.equal c.name t.client || List.mem c.name e.targets)
    t.components

(* --- availability --- *)

let evaluator t =
  let adjacency = build_adjacency t.components in
  let n = Array.length adjacency in
  let idx = index_of t.components in
  let client = Option.get (idx t.client) in
  let targets =
    Array.of_list
      (List.map
         (fun (e : endpoint) ->
           Array.of_list (List.map (fun s -> Option.get (idx s)) e.targets))
         t.endpoints)
  in
  let n_endpoints = Array.length targets in
  fun ~killed ~endpoint ->
    if endpoint < 0 || endpoint >= n_endpoints then
      invalid_arg "Service_graph.evaluator: endpoint index out of range";
    let alive = Array.make n true in
    Array.iter
      (fun k ->
        if k < 0 || k >= n then
          invalid_arg "Service_graph.evaluator: component index out of range";
        alive.(k) <- false)
      killed;
    alive.(client)
    &&
    let reach = Array.make n false in
    let rec go i =
      if alive.(i) && not reach.(i) then begin
        reach.(i) <- true;
        List.iter go adjacency.(i)
      end
    in
    go client;
    Array.for_all (fun ti -> reach.(ti)) targets.(endpoint)

let available t ~killed name =
  let idx = index_of t.components in
  let killed =
    Array.of_list
      (List.map
         (fun k ->
           match idx k with
           | Some i -> i
           | None ->
               invalid_arg
                 (Printf.sprintf "Service_graph.available: unknown component %S"
                    k))
         killed)
  in
  let rec find i = function
    | [] ->
        invalid_arg
          (Printf.sprintf "Service_graph.available: unknown endpoint %S" name)
    | (e : endpoint) :: rest ->
        if String.equal e.endpoint name then i else find (i + 1) rest
  in
  evaluator t ~killed ~endpoint:(find 0 t.endpoints)

(* --- traffic synthesis --- *)

(* Elements (8 B each) one request touches in a component: a service
   handler reads a small working set, a queue appends a batch, a store
   scans a row group.  Contiguous (run_length = visits), matching the
   synthesized trace below. *)
let touch_elems = function Service -> 8 | Queue -> 16 | Store -> 32

let elem_size = 8

(* Deterministic largest-remainder schedule of the endpoint mix: each
   request goes to the endpoint with the highest accumulated credit
   (ties to the earliest declared), so executed per-endpoint counts
   match [requests * weight] within one request — the spec's iteration
   counts below are derived from this same schedule and agree exactly
   with the trace. *)
let schedule t ~requests =
  let eps = Array.of_list t.endpoints in
  let credit = Array.map (fun _ -> 0.0) eps in
  Array.init requests (fun _ ->
      Array.iteri (fun i (e : endpoint) -> credit.(i) <- credit.(i) +. e.weight) eps;
      let best = ref 0 in
      Array.iteri (fun i c -> if c > credit.(!best) then best := i) credit;
      credit.(!best) <- credit.(!best) -. 1.0;
      !best)

let endpoint_counts t ~requests =
  let counts = Array.make (List.length t.endpoints) 0 in
  Array.iter (fun e -> counts.(e) <- counts.(e) + 1) (schedule t ~requests);
  counts

(* Per touched component: how many requests of the schedule touch it.
   The client is touched by every request. *)
let touch_plan t ~requests =
  let counts = endpoint_counts t ~requests in
  List.filter_map
    (fun (c : component) ->
      let hits =
        if String.equal c.name t.client then requests
        else
          List.fold_left
            (fun (acc, i) (e : endpoint) ->
              ((if List.mem c.name e.targets then acc + counts.(i) else acc),
               i + 1))
            (0, 0) t.endpoints
          |> fst
      in
      if hits = 0 then None else Some (c, hits))
    t.components

let spec ~requests t =
  if requests < 1 then invalid_arg "Service_graph.spec: requests < 1";
  let plan = touch_plan t ~requests in
  let total_bytes =
    List.fold_left (fun a ((c : component), _) -> a + c.state_bytes) 0 plan
  in
  let structures =
    List.map
      (fun ((c : component), hits) ->
        let elements = c.state_bytes / elem_size in
        let visits = min (touch_elems c.kind) elements in
        let pattern =
          Ap.Random_access.make ~run_length:visits ~elements ~elem_size
            ~visits ~iterations:hits
            ~cache_ratio:(float_of_int c.state_bytes /. float_of_int total_bytes)
            ()
        in
        {
          Ap.App_spec.name = c.name;
          bytes = c.state_bytes;
          pattern = Some (Ap.Pattern.Random pattern);
        })
      plan
  in
  Ap.App_spec.make ~app_name:t.graph_name ~structures ()

(* Work per touched element for the roofline: deserialization, handler
   logic, serialization — a fixed small constant keeps the graphs
   memory-bound, like real request fan-out. *)
let flops_per_elem = 16

let flops ~requests t =
  List.fold_left
    (fun acc ((c : component), hits) ->
      let elements = c.state_bytes / elem_size in
      acc + (hits * min (touch_elems c.kind) elements * flops_per_elem))
    0
    (touch_plan t ~requests)

let trace ?(seed = 42) ~requests t registry tape =
  if requests < 1 then invalid_arg "Service_graph.trace: requests < 1";
  let plan = touch_plan t ~requests in
  let regions =
    List.mapi
      (fun i ((c : component), _) ->
        let elements = c.state_bytes / elem_size in
        ( c.name,
          ( Memtrace.Region.register registry ~name:c.name ~elements ~elem_size,
            min (touch_elems c.kind) elements,
            Dvf_util.Rng.create (Dvf_util.Rng.sub_seed seed i) ) ))
      plan
  in
  (* Construction traverse: every component's state is touched once at
     startup — the initial full traversal the Random_access model
     assumes before random visits begin. *)
  List.iter
    (fun (_, (region, _, _)) ->
      let elements = max 1 (region.Memtrace.Region.bytes / elem_size) in
      for e = 0 to elements - 1 do
        Memtrace.Tape.append tape ~owner:region.Memtrace.Region.id
          ~write:false ~addr:(Memtrace.Region.elem_addr region e)
          ~size:elem_size
      done)
    regions;
  let eps = Array.of_list t.endpoints in
  let touched_regions =
    (* per endpoint: the (region, visits, rng) triples its requests
       touch, client first in declaration order *)
    Array.map
      (fun (e : endpoint) ->
        List.filter_map
          (fun ((c : component), _) ->
            if String.equal c.name t.client || List.mem c.name e.targets then
              Some (List.assoc c.name regions)
            else None)
          plan)
      eps
  in
  Array.iter
    (fun ei ->
      List.iter
        (fun (region, visits, rng) ->
          let elements = max 1 (region.Memtrace.Region.bytes / elem_size) in
          let start = Dvf_util.Rng.int rng elements in
          for k = 0 to visits - 1 do
            Memtrace.Tape.append tape ~owner:region.Memtrace.Region.id
              ~write:false
              ~addr:(Memtrace.Region.elem_addr region ((start + k) mod elements))
              ~size:elem_size
          done)
        touched_regions.(ei))
    (schedule t ~requests)

(* --- the built-in example graph --- *)

let kb n = n * 1024

let social_network =
  let c = component in
  make ~name:"social-network" ~client:"nginx-web-server"
    ~components:
      [
        c ~name:"nginx-web-server" ~state_bytes:(kb 64)
          ~calls:
            [
              "home-timeline-service"; "user-timeline-service";
              "compose-post-service"; "user-service";
            ]
          ();
        c ~name:"home-timeline-service" ~state_bytes:(kb 128)
          ~calls:[ "post-storage-service"; "social-graph-service" ]
          ();
        c ~name:"user-timeline-service" ~state_bytes:(kb 128)
          ~calls:[ "post-storage-service" ] ();
        c ~name:"compose-post-service" ~state_bytes:(kb 96)
          ~calls:
            [
              "unique-id-service"; "text-service"; "user-service";
              "post-storage-service"; "user-timeline-service";
              "home-timeline-service"; "write-behind-queue";
            ]
          ();
        c ~name:"unique-id-service" ~state_bytes:(kb 16) ();
        c ~name:"text-service" ~state_bytes:(kb 32) ();
        c ~name:"user-service" ~state_bytes:(kb 64) ~calls:[ "user-db" ] ();
        c ~name:"social-graph-service" ~state_bytes:(kb 96)
          ~calls:[ "social-graph-db" ] ();
        c ~name:"post-storage-service" ~state_bytes:(kb 64)
          ~calls:[ "post-storage-db" ] ();
        c ~kind:Queue ~name:"write-behind-queue" ~state_bytes:(kb 64)
          ~calls:[ "post-storage-db" ] ();
        c ~kind:Store ~name:"post-storage-db" ~state_bytes:(kb 512) ();
        c ~kind:Store ~name:"social-graph-db" ~state_bytes:(kb 256) ();
        c ~kind:Store ~name:"user-db" ~state_bytes:(kb 128) ();
      ]
    ~endpoints:
      [
        endpoint ~name:"home-timeline" ~weight:0.60
          ~targets:
            [
              "home-timeline-service"; "post-storage-service";
              "social-graph-service"; "post-storage-db"; "social-graph-db";
            ];
        endpoint ~name:"user-timeline" ~weight:0.30
          ~targets:
            [ "user-timeline-service"; "post-storage-service"; "post-storage-db" ];
        endpoint ~name:"compose-post" ~weight:0.10
          ~targets:
            [
              "compose-post-service"; "unique-id-service"; "text-service";
              "user-service"; "user-db"; "write-behind-queue";
              "post-storage-service"; "post-storage-db";
              "user-timeline-service"; "home-timeline-service";
              "social-graph-service";
            ];
      ]
    ()
