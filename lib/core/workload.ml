type mode = [ `Verification | `Profiling ]

type instance = {
  workload : string;
  label : string;
  spec : Access_patterns.App_spec.t;
  flops : int;
  trace : Memtrace.Region.t -> Memtrace.Tape.t -> unit;
}

type t = {
  name : string;
  computational_class : string;
  major_structures : string list;
  pattern_classes : string;
  example_benchmark : string;
  input_size : mode -> string;
  instance : mode -> instance;
  injector : (unit -> Kernels.Fault_injection.injector) option;
  aspen_source : string option;
  topology : Service_graph.t option;
}

(* The smart constructor every registrant goes through: optional fields
   default here, so the record can grow (as it did with [injector],
   [aspen_source] and now [topology]) without touching each caller. *)
let make ~name ~computational_class ~major_structures ~pattern_classes
    ~example_benchmark ~input_size ~instance ?injector ?aspen_source ?topology
    () =
  {
    name;
    computational_class;
    major_structures;
    pattern_classes;
    example_benchmark;
    input_size;
    instance;
    injector;
    aspen_source;
    topology;
  }

let key name = String.uppercase_ascii name

(* The six built-ins register at module-initialization time in the main
   domain; the mutex guards runtime registrations (e.g. from a loaded
   model file) against concurrent lookups in parallel sweeps. *)
let lock = Mutex.create ()
let table : t list ref = ref []

let register w =
  Mutex.protect lock (fun () ->
      if List.exists (fun r -> key r.name = key w.name) !table then
        invalid_arg
          (Printf.sprintf "Workload.register: duplicate name %S" w.name);
      table := !table @ [ w ])

let find name =
  Mutex.protect lock (fun () ->
      List.find_opt (fun r -> key r.name = key name) !table)

let names () = Mutex.protect lock (fun () -> List.map (fun r -> r.name) !table)
let all () = Mutex.protect lock (fun () -> !table)

let of_name name =
  match find name with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "Workload.of_name: unknown workload %S (registered: %s)"
           name
           (match names () with
           | [] -> "none"
           | ns -> String.concat ", " ns))
