type structure = {
  name : string;
  bytes : int;
  pattern : Pattern.t option;
}

type t = {
  app_name : string;
  structures : structure list;
  composition : Compose.t option;
}

let make ~app_name ~structures ?composition () =
  if structures = [] then invalid_arg "App_spec.make: no structures";
  let covered name =
    match composition with
    | None -> false
    | Some c ->
        List.exists (fun s -> s.Compose.name = name) c.Compose.structures
  in
  List.iter
    (fun s ->
      if s.bytes < 0 then
        invalid_arg
          (Printf.sprintf "App_spec.make: structure %s has negative size %d"
             s.name s.bytes);
      match s.pattern with
      | Some _ -> ()
      | None ->
          if not (covered s.name) then
            invalid_arg
              ("App_spec.make: structure " ^ s.name
             ^ " has no pattern and is not in the composition"))
    structures;
  { app_name; structures; composition }

let main_memory_accesses ~cache t =
  let from_composition =
    match t.composition with
    | None -> []
    | Some c -> Compose.main_memory_accesses ~cache c
  in
  List.map
    (fun s ->
      let standalone =
        match s.pattern with
        | Some p -> Pattern.main_memory_accesses ~cache p
        | None -> 0.0
      in
      let composed =
        match List.assoc_opt s.name from_composition with
        | Some v -> v
        | None -> 0.0
      in
      (s.name, standalone +. composed))
    t.structures

let structure_bytes t = List.map (fun s -> (s.name, s.bytes)) t.structures

let total_bytes t = List.fold_left (fun acc s -> acc + s.bytes) 0 t.structures

let cache_references ~cache t =
  let from_composition =
    match t.composition with
    | None -> []
    | Some c -> Compose.references ~cache c
  in
  List.map
    (fun s ->
      let standalone =
        match s.pattern with
        | Some p -> Pattern.references p
        | None -> 0.0
      in
      let composed =
        match List.assoc_opt s.name from_composition with
        | Some v -> v
        | None -> 0.0
      in
      (s.name, standalone +. composed))
    t.structures
