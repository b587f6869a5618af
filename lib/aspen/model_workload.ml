module Ap = Access_patterns

let pattern_classes (spec : Ap.App_spec.t) =
  let add acc name = if List.mem name acc then acc else acc @ [ name ] in
  let of_pattern acc = function
    | Ap.Pattern.Stream _ -> add acc "Streaming"
    | Ap.Pattern.Random _ -> add acc "Random"
    | Ap.Pattern.Templated _ -> add acc "Template-based"
  in
  let acc =
    List.fold_left
      (fun acc (s : Ap.App_spec.structure) ->
        match s.Ap.App_spec.pattern with
        | Some p -> of_pattern acc p
        | None -> acc)
      [] spec.Ap.App_spec.structures
  in
  let acc =
    match spec.Ap.App_spec.composition with
    | None -> acc
    | Some c ->
        List.fold_left
          (fun acc phase ->
            List.fold_left
              (fun acc (o : Ap.Compose.occurrence) ->
                match o.Ap.Compose.pattern with
                | Ap.Compose.Stream _ -> add acc "Streaming"
                | Ap.Compose.Tmpl _ -> add acc "Template-based"
                | Ap.Compose.Reuse_only -> add acc "Reuse")
              acc phase)
          acc c.Ap.Compose.order
  in
  match acc with [] -> "(declared sizes only)" | classes -> String.concat "+" classes

let describe_params (app : Compile.app) =
  match app.Compile.env with
  | [] -> "(no parameters)"
  | env ->
      String.concat ", "
        (List.rev_map (fun (name, v) -> Printf.sprintf "%s=%g" name v) env)

let of_app ?source (app : Compile.app) =
  (try Core.Replay.check app.Compile.spec
   with Invalid_argument message -> Errors.fail ~line:0 ~col:0 message);
  let instance =
    {
      Core.Workload.workload = app.Compile.app_name;
      label = app.Compile.app_name;
      spec = app.Compile.spec;
      flops = app.Compile.flops;
      trace = Core.Replay.trace app.Compile.spec;
    }
  in
  Core.Workload.make ~name:app.Compile.app_name
    ~computational_class:"Aspen model"
    ~major_structures:
      (List.map
         (fun (s : Ap.App_spec.structure) -> s.Ap.App_spec.name)
         app.Compile.spec.Ap.App_spec.structures)
    ~pattern_classes:(pattern_classes app.Compile.spec)
    ~example_benchmark:
      (match source with Some path -> path | None -> "user model")
    ~input_size:(fun _ -> describe_params app)
    (* A model has one problem scale: its parameter values.  Both modes
       return the same instance.  An Aspen model has no executable
       kernel to bombard, so no injector. *)
    ~instance:(fun _ -> instance)
    ?aspen_source:source ()

let register ?source app =
  let w = of_app ?source app in
  Core.Workload.register w;
  w
