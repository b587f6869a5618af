module Table = Dvf_util.Table

type component_dvf = {
  memory : Dvf.app_dvf;
  cache : Dvf.app_dvf;
}

let default_cache_fit = 1000.0

(* A structure's bytes resident in the cache: its own size, capped by its
   proportional share of the capacity (the paper's cache-splitting rule
   for concurrently-live structures). *)
let resident_bytes ~cache spec (s : Access_patterns.App_spec.structure) =
  let total = Access_patterns.App_spec.total_bytes spec in
  if total = 0 then 0
  else begin
    let capacity = Cachesim.Config.capacity cache in
    let share =
      float_of_int capacity *. float_of_int s.Access_patterns.App_spec.bytes
      /. float_of_int total
    in
    min s.Access_patterns.App_spec.bytes (int_of_float share)
  end

let cache_dvf ?(fit = default_cache_fit) ~cache ~time spec =
  let refs = Access_patterns.App_spec.cache_references ~cache spec in
  let counts =
    List.map
      (fun (s : Access_patterns.App_spec.structure) ->
        ( s.Access_patterns.App_spec.name,
          resident_bytes ~cache spec s,
          List.assoc s.Access_patterns.App_spec.name refs ))
      spec.Access_patterns.App_spec.structures
  in
  Dvf.of_counts ~fit ~time
    ~app_name:(spec.Access_patterns.App_spec.app_name ^ " (LLC)")
    counts

let both ?cache_fit ~machine ~cache ~flops spec =
  let memory =
    Dvf.of_spec ~machine ~cache ~fit:(Ecc.fit Ecc.No_ecc) ~flops spec
  in
  { memory; cache = cache_dvf ?fit:cache_fit ~cache ~time:memory.Dvf.time spec }

let to_table t =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "Component DVF: %s (memory FIT %g, cache FIT %g)"
           t.memory.Dvf.app_name t.memory.Dvf.fit t.cache.Dvf.fit)
      [
        ("structure", Table.Left); ("S_d", Table.Right);
        ("resident", Table.Right); ("memory DVF", Table.Right);
        ("cache DVF", Table.Right); ("dominant", Table.Left);
      ]
  in
  List.iter2
    (fun (m : Dvf.structure_dvf) (c : Dvf.structure_dvf) ->
      Table.add_row tbl
        [
          m.Dvf.name;
          Format.asprintf "%a" Dvf_util.Units.pp_bytes m.Dvf.bytes;
          Format.asprintf "%a" Dvf_util.Units.pp_bytes c.Dvf.bytes;
          Table.cell_float m.Dvf.dvf; Table.cell_float c.Dvf.dvf;
          (if m.Dvf.dvf >= c.Dvf.dvf then "memory" else "cache");
        ])
    t.memory.Dvf.structures t.cache.Dvf.structures;
  Table.add_sep tbl;
  Table.add_row tbl
    [
      "total"; ""; ""; Table.cell_float t.memory.Dvf.total;
      Table.cell_float t.cache.Dvf.total; "";
    ];
  tbl
