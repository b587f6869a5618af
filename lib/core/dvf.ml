module Units = Dvf_util.Units

type structure_dvf = {
  name : string;
  bytes : int;
  n_ha : float;
  n_error : float;
  dvf : float;
}

type app_dvf = {
  app_name : string;
  fit : float;
  time : float;
  n_ha : float;
  structures : structure_dvf list;
  total : float;
}

let scale = 1.0e9

let structure ?(alpha = 1.0) ?(beta = 1.0) ~fit ~time ~bytes ~n_ha name =
  if n_ha < 0.0 then invalid_arg "Dvf.structure: negative N_ha";
  let n_error = Units.expected_errors ~fit ~seconds:time ~bytes *. scale in
  let dvf =
    if alpha = 1.0 && beta = 1.0 then n_error *. n_ha
    else (n_error ** alpha) *. (n_ha ** beta)
  in
  { name; bytes; n_ha; n_error; dvf }

let total_of structures =
  Dvf_util.Maths.sum (Array.of_list (List.map (fun s -> s.dvf) structures))

let of_counts ?alpha ?beta ~fit ~time ~app_name counts =
  let structures =
    List.map
      (fun (name, bytes, n_ha) ->
        structure ?alpha ?beta ~fit ~time ~bytes ~n_ha name)
      counts
  in
  let n_ha = List.fold_left (fun acc (_, _, n) -> acc +. n) 0.0 counts in
  { app_name; fit; time; n_ha; structures; total = total_of structures }

let of_spec ?alpha ?beta ~machine ~cache ~fit ~flops spec =
  let n_has = Access_patterns.App_spec.main_memory_accesses ~cache spec in
  let sizes = Access_patterns.App_spec.structure_bytes spec in
  let n_ha = List.fold_left (fun acc (_, n) -> acc +. n) 0.0 n_has in
  let time = Perf.execution_time machine ~cache ~flops ~n_ha in
  of_counts ?alpha ?beta ~fit ~time
    ~app_name:spec.Access_patterns.App_spec.app_name
    (List.map (fun (name, n) -> (name, List.assoc name sizes, n)) n_has)

let rescale ~fit ~time app =
  of_counts ~fit ~time ~app_name:app.app_name
    (List.map (fun s -> (s.name, s.bytes, s.n_ha)) app.structures)

let pp_app fmt t =
  Format.fprintf fmt "@[<v>%s (FIT=%g, T=%.4gs):@," t.app_name t.fit t.time;
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-8s S_d=%a N_ha=%a DVF=%.6g@," s.name
        Units.pp_bytes s.bytes Units.pp_count s.n_ha s.dvf)
    t.structures;
  Format.fprintf fmt "  total DVF_a = %.6g@]" t.total
