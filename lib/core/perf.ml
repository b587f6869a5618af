type machine = {
  name : string;
  peak_flops : float;
  memory_bandwidth : float;
}

let make_machine ~name ~peak_flops ~memory_bandwidth =
  if peak_flops <= 0.0 then invalid_arg "Perf.make_machine: peak_flops <= 0";
  if memory_bandwidth <= 0.0 then
    invalid_arg "Perf.make_machine: memory_bandwidth <= 0";
  { name; peak_flops; memory_bandwidth }

let default_machine =
  make_machine ~name:"node-2014" ~peak_flops:100.0e9 ~memory_bandwidth:50.0e9

let execution_time machine ~cache ~flops ~n_ha =
  if flops < 0 then invalid_arg "Perf.execution_time: negative flops";
  if n_ha < 0.0 then invalid_arg "Perf.execution_time: negative n_ha";
  let compute = float_of_int flops /. machine.peak_flops in
  let bytes = n_ha *. float_of_int cache.Cachesim.Config.line in
  let memory = bytes /. machine.memory_bandwidth in
  Float.max compute memory
