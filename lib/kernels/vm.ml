module Tracked = Memtrace.Tracked
module Ap = Access_patterns

type params = {
  n : int;
  stride_a : int;
  stride_b : int;
  elem_size : int;
}

let make_params ?(stride_a = 4) ?(stride_b = 1) ?(elem_size = 4) n =
  if n <= 0 then invalid_arg "Vm.make_params: n <= 0";
  if stride_a <= 0 || stride_b <= 0 then invalid_arg "Vm.make_params: stride <= 0";
  if elem_size <= 0 then invalid_arg "Vm.make_params: elem_size <= 0";
  { n; stride_a; stride_b; elem_size }

let verification = make_params 1_000
let profiling = make_params 100_000

type result = { checksum : float; flops : int }

let run registry tape p =
  let init_a i = float_of_int ((i mod 97) + 1) in
  let init_b i = float_of_int ((i mod 89) + 1) /. 8.0 in
  let a =
    Tracked.init registry tape ~name:"A" ~elem_size:p.elem_size
      (p.n * p.stride_a) init_a
  in
  let b =
    Tracked.init registry tape ~name:"B" ~elem_size:p.elem_size
      (p.n * p.stride_b) init_b
  in
  let c =
    Tracked.make registry tape ~name:"C" ~elem_size:p.elem_size p.n 0.0
  in
  for i = 0 to p.n - 1 do
    let ai = Tracked.get a (i * p.stride_a) in
    let bi = Tracked.get b (i * p.stride_b) in
    let ci = Tracked.get c i in
    Tracked.set c i (ci +. (ai *. bi))
  done;
  let checksum = ref 0.0 in
  for i = 0 to p.n - 1 do
    checksum := !checksum +. Tracked.get_silent c i
  done;
  { checksum = !checksum; flops = 2 * p.n }

let spec p =
  let stream name elements stride =
    {
      Ap.App_spec.name;
      bytes = elements * p.elem_size;
      pattern =
        Some
          (Ap.Pattern.Stream
             (Ap.Streaming.make ~elem_size:p.elem_size ~elements ~stride ()));
    }
  in
  Ap.App_spec.make ~app_name:"VM"
    ~structures:
      [
        stream "A" (p.n * p.stride_a) p.stride_a;
        stream "B" (p.n * p.stride_b) p.stride_b;
        (* C is read-modify-written with unit stride: every touched line
           is also evicted dirty. *)
        {
          Ap.App_spec.name = "C";
          bytes = p.n * p.elem_size;
          pattern =
            Some
              (Ap.Pattern.Stream
                 (Ap.Streaming.make ~writeback:true ~elem_size:p.elem_size
                    ~elements:p.n ~stride:1 ()));
        };
      ]
    ()

let flop_count p = 2 * p.n
