module Ap = Access_patterns
module TL = Access_patterns.Template_lang

type machine = {
  machine_name : string;
  cache : Cachesim.Config.t;
  fit : float;
  perf : Core.Perf.machine;
}

type app = {
  app_name : string;
  spec : Ap.App_spec.t;
  flops : int;
  declared_time : float option;
  env : Eval.env;
}

let fail message = Errors.fail ~line:0 ~col:0 message

(* --- argument helpers --- *)

let scalar_arg args name =
  match List.assoc_opt name args with
  | Some (Ast.Scalar e) -> Some e
  | Some _ -> fail (Printf.sprintf "argument '%s' must be a scalar" name)
  | None -> None

let required_int env args ~context name =
  match scalar_arg args name with
  | Some e -> Eval.int_expr env e
  | None -> fail (Printf.sprintf "%s requires argument '%s'" context name)

let optional_int env args name ~default =
  match scalar_arg args name with
  | Some e -> Eval.int_expr env e
  | None -> default

let optional_float env args name ~default =
  match scalar_arg args name with
  | Some e -> Eval.expr env e
  | None -> default

let text_arg args name =
  match List.assoc_opt name args with
  | Some (Ast.Text s) -> Some s
  | Some _ -> fail (Printf.sprintf "argument '%s' must be a string" name)
  | None -> None

let has_flag args name =
  match List.assoc_opt name args with
  | Some Ast.Flag -> true
  | Some (Ast.Scalar (Ast.Num f)) -> f <> 0.0
  | Some _ -> fail (Printf.sprintf "argument '%s' must be a bare flag" name)
  | None -> false

let tuple_arg args name =
  match List.assoc_opt name args with
  | Some (Ast.Tuple es) -> Some es
  | Some (Ast.Scalar e) -> Some [ e ]
  | Some (Ast.Flag | Ast.Text _) ->
      fail (Printf.sprintf "argument '%s' must be a tuple" name)
  | None -> None

let known_args ~context args allowed =
  List.iter
    (fun (name, _) ->
      if not (List.mem name allowed) then
        fail (Printf.sprintf "%s: unknown argument '%s'" context name))
    args

(* --- pattern lowering --- *)

let lower_stream env args =
  known_args ~context:"stream" args
    [ "elem"; "count"; "stride"; "writeback" ];
  Ap.Streaming.make
    ~writeback:(has_flag args "writeback")
    ~elem_size:(required_int env args ~context:"stream" "elem")
    ~elements:(required_int env args ~context:"stream" "count")
    ~stride:(optional_int env args "stride" ~default:1)
    ()

let lower_random env args =
  known_args ~context:"random" args
    [ "elems"; "elem"; "visits"; "iters"; "ratio"; "run"; "resident" ];
  Ap.Random_access.make
    ~run_length:(optional_int env args "run" ~default:1)
    ~resident_bytes:(optional_int env args "resident" ~default:0)
    ~elements:(required_int env args ~context:"random" "elems")
    ~elem_size:(required_int env args ~context:"random" "elem")
    ~visits:(required_int env args ~context:"random" "visits")
    ~iterations:(required_int env args ~context:"random" "iters")
    ~cache_ratio:(optional_float env args "ratio" ~default:1.0)
    ()

let lower_reference (r : Ast.reference) = List.map Eval.to_template_expr r.Ast.indices

let rec lower_generator (g : Ast.generator) : TL.t =
  match g with
  | Ast.Refs rs -> TL.Refs (List.map lower_reference rs)
  | Ast.Range { step; from_; to_ } ->
      TL.Range
        {
          start = List.map lower_reference from_;
          step = Eval.to_template_expr step;
          stop = List.map lower_reference to_;
        }
  | Ast.Pass { start; count; stride } ->
      TL.Pass
        {
          start = Eval.to_template_expr start;
          count = Eval.to_template_expr count;
          stride = Eval.to_template_expr stride;
        }
  | Ast.Zip { count; streams } ->
      TL.Zip
        {
          count = Eval.to_template_expr count;
          streams =
            List.map
              (fun (r, step) -> (lower_reference r, Eval.to_template_expr step))
              streams;
        }
  | Ast.Repeat (count, body) ->
      TL.Repeat (Eval.to_template_expr count, List.map lower_generator body)

let lower_template env args generators =
  known_args ~context:"template" args
    [ "elem"; "ratio"; "shape"; "raw"; "provider" ];
  let elem = required_int env args ~context:"template" "elem" in
  let ratio = optional_float env args "ratio" ~default:1.0 in
  let tl_env =
    List.filter_map
      (fun (name, v) ->
        if Float.is_integer v then Some (name, int_of_float v) else None)
      env
  in
  let distance = if has_flag args "raw" then `Raw else `Stack in
  match text_arg args "provider" with
  | Some provider_name ->
      (* The reference stream comes from a generator registered by a
         kernel module (executed pseudocode), not from inline
         generators. *)
      if generators <> [] then
        fail
          (Printf.sprintf
             "template: provider %S cannot be combined with inline generators"
             provider_name);
      if List.mem_assoc "shape" args then
        fail
          (Printf.sprintf "template: provider %S takes no shape" provider_name);
      let provider =
        match Ap.Template_provider.find provider_name with
        | Some p -> p
        | None ->
            fail
              (Printf.sprintf "template: unknown provider %S (registered: %s)"
                 provider_name
                 (match Ap.Template_provider.names () with
                 | [] -> "none"
                 | names -> String.concat ", " names))
      in
      let refs, writes =
        try provider tl_env with Failure message -> fail message
      in
      (try
         Ap.Template.make ~cache_ratio:ratio ~distance ?writes ~elem_size:elem
           refs
       with Invalid_argument message -> fail message)
  | None ->
      let shape =
        match tuple_arg args "shape" with
        | Some es -> List.map Eval.to_template_expr es
        | None -> [ TL.Expr.Int max_int ]
          (* rank-1 references with a virtually unbounded extent *)
      in
      let generator = TL.Seq (List.map lower_generator generators) in
      let refs =
        try TL.expand ~env:tl_env ~shape generator with
        | Failure message -> fail message
        | Invalid_argument message -> fail message
      in
      (try Ap.Template.make ~cache_ratio:ratio ~distance ~elem_size:elem refs
       with Invalid_argument message -> fail message)

let lower_standalone_pattern env (p : Ast.pattern) =
  match p with
  | Ast.Stream args -> Some (Ap.Pattern.Stream (lower_stream env args))
  | Ast.Random args -> Some (Ap.Pattern.Random (lower_random env args))
  | Ast.Template { args; generators } ->
      Some (Ap.Pattern.Templated (lower_template env args generators))
  | Ast.Reuse -> fail "'reuse' is only meaningful inside an order phase"

let lower_occurrence_pattern env (p : Ast.pattern) =
  match p with
  | Ast.Stream args -> Ap.Compose.Stream (lower_stream env args)
  | Ast.Template { args; generators } ->
      Ap.Compose.Tmpl (lower_template env args generators)
  | Ast.Reuse -> Ap.Compose.Reuse_only
  | Ast.Random _ -> fail "random patterns cannot appear inside an order phase"

let inferred_size env (p : Ast.pattern) =
  match p with
  | Ast.Stream args ->
      required_int env args ~context:"stream" "elem"
      * required_int env args ~context:"stream" "count"
  | Ast.Random args ->
      required_int env args ~context:"random" "elem"
      * required_int env args ~context:"random" "elems"
  | Ast.Template { args; generators } ->
      let t = lower_template env args generators in
      let hi = Array.fold_left max 0 t.Ap.Template.refs in
      (hi + 1) * t.Ap.Template.elem_size
  | Ast.Reuse -> fail "cannot infer a size from 'reuse'"

(* --- app compilation --- *)

(* A pattern constructor's own check (a non-positive element size, a
   negative count, ...) becomes a compile error naming the structure. *)
let in_structure name lower pattern =
  try lower pattern with Invalid_argument m -> fail (name ^ ": " ^ m)

let eval_params ?(overrides = []) decls =
  List.fold_left
    (fun env (name, e) ->
      match List.assoc_opt name overrides with
      | Some v -> (name, v) :: env
      | None -> (name, Eval.expr env e) :: env)
    [] decls

let compile_app ?overrides (a : Ast.app) =
  let env = eval_params ?overrides a.Ast.params in
  let structures =
    List.map
      (fun (d : Ast.data_decl) ->
        let bytes =
          match d.Ast.size with
          | Some e -> Eval.int_expr env e
          | None -> (
              match d.Ast.data_pattern with
              | Some p -> inferred_size env p
              | None ->
                  fail
                    (Printf.sprintf
                       "data '%s' needs either a size or a pattern"
                       d.Ast.data_name))
        in
        let pattern =
          match d.Ast.data_pattern with
          | Some p -> in_structure d.Ast.data_name (lower_standalone_pattern env) p
          | None -> None
        in
        { Ap.App_spec.name = d.Ast.data_name; bytes; pattern })
      a.Ast.datas
  in
  let composition =
    match a.Ast.order with
    | None -> None
    | Some { iterations; phases } ->
        let iterations =
          match iterations with Some e -> Eval.int_expr env e | None -> 1
        in
        let compose_structures =
          List.map
            (fun (s : Ap.App_spec.structure) ->
              { Ap.Compose.name = s.Ap.App_spec.name; bytes = s.Ap.App_spec.bytes })
            structures
        in
        let order =
          List.map
            (fun phase ->
              List.map
                (fun (occ : Ast.occurrence) ->
                  let times =
                    match occ.Ast.times with
                    | Some e -> Eval.int_expr env e
                    | None -> 1
                  in
                  Ap.Compose.occ ~times occ.Ast.occ_structure
                    (in_structure occ.Ast.occ_structure
                       (lower_occurrence_pattern env)
                       occ.Ast.occ_pattern))
                phase)
            phases
        in
        (try Some (Ap.Compose.make ~structures:compose_structures ~order ~iterations)
         with Invalid_argument message -> fail message)
  in
  let spec =
    try Ap.App_spec.make ~app_name:a.Ast.app_name ~structures ?composition ()
    with Invalid_argument message -> fail message
  in
  {
    app_name = a.Ast.app_name;
    spec;
    flops = (match a.Ast.flops with Some e -> Eval.int_expr env e | None -> 0);
    declared_time =
      (match a.Ast.time with Some e -> Some (Eval.expr env e) | None -> None);
    env;
  }

(* --- machine compilation --- *)

let compile_machine (m : Ast.machine) =
  let section name =
    List.find_opt (fun s -> s.Ast.section_name = name) m.Ast.sections
  in
  List.iter
    (fun s ->
      if not (List.mem s.Ast.section_name [ "cache"; "memory"; "perf" ]) then
        fail
          (Printf.sprintf "machine '%s': unknown section '%s'" m.Ast.machine_name
             s.Ast.section_name))
    m.Ast.sections;
  let field ~section_name fields name =
    match List.assoc_opt name fields with
    | Some e -> Eval.expr [] e
    | None ->
        fail
          (Printf.sprintf "machine '%s': section '%s' needs field '%s'"
             m.Ast.machine_name section_name name)
  in
  let cache =
    match section "cache" with
    | None -> fail (Printf.sprintf "machine '%s' has no cache section" m.Ast.machine_name)
    | Some s ->
        let get = field ~section_name:"cache" s.Ast.fields in
        (try
           Cachesim.Config.make ~name:m.Ast.machine_name
             ~associativity:(int_of_float (get "assoc"))
             ~sets:(int_of_float (get "sets"))
             ~line:(int_of_float (get "line"))
         with Invalid_argument message -> fail message)
  in
  let fit =
    match section "memory" with
    | None -> Core.Ecc.fit Core.Ecc.No_ecc
    | Some s -> field ~section_name:"memory" s.Ast.fields "fit"
  in
  let perf =
    match section "perf" with
    | None -> Core.Perf.default_machine
    | Some s ->
        let get = field ~section_name:"perf" s.Ast.fields in
        (try
           Core.Perf.make_machine ~name:m.Ast.machine_name
             ~peak_flops:(get "flops") ~memory_bandwidth:(get "bandwidth")
         with Invalid_argument message -> fail message)
  in
  { machine_name = m.Ast.machine_name; cache; fit; perf }

let machines file =
  List.filter_map
    (function Ast.Machine m -> Some (compile_machine m) | Ast.App _ -> None)
    file

let apps ?overrides file =
  List.filter_map
    (function
      | Ast.App a -> Some (compile_app ?overrides a)
      | Ast.Machine _ -> None)
    file

let find_machine file name =
  match
    List.find_opt (fun (m : machine) -> m.machine_name = name) (machines file)
  with
  | Some m -> m
  | None -> fail (Printf.sprintf "no machine named '%s' in this file" name)

let find_app ?overrides file name =
  let decl =
    List.find_opt
      (function Ast.App a -> a.Ast.app_name = name | Ast.Machine _ -> false)
      file
  in
  match decl with
  | Some (Ast.App a) -> compile_app ?overrides a
  | _ -> fail (Printf.sprintf "no app named '%s' in this file" name)

let dvf machine app =
  let d =
    Core.Dvf.of_spec ~machine:machine.perf ~cache:machine.cache
      ~fit:machine.fit ~flops:app.flops app.spec
  in
  match app.declared_time with
  | Some time -> Core.Dvf.rescale ~fit:machine.fit ~time d
  | None -> d
