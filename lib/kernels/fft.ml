module Tracked = Memtrace.Tracked
module Ap = Access_patterns

type params = {
  n : int;
  repeats : int;
  seed : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let make_params ?(repeats = 1) ?(seed = 3) n =
  if not (is_power_of_two n) || n < 2 then
    invalid_arg "Fft.make_params: n must be a power of two >= 2";
  if repeats < 1 then invalid_arg "Fft.make_params: repeats < 1";
  { n; repeats; seed }

let verification = make_params 16_384
let profiling = make_params 2_048

type result = {
  checksum : float;
  max_roundtrip_error : float;
  flops : int;
}

module type Ops = sig
  val get : int -> Complex.t
  val set : int -> Complex.t -> unit
end

let bit_reverse ~bits i =
  let r = ref 0 in
  for b = 0 to bits - 1 do
    if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
  done;
  !r

let log2i n =
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

(* In-place iterative radix-2 transform; [sign] = -1 forward, +1 inverse
   (without the 1/n scaling).  All element accesses go through [O], so the
   traced kernel and the template generator share the exact pass
   structure.  [on_pass] fires before the bit-reversal pass and before
   each butterfly pass — the fault injector's hook. *)
let transform ?(on_pass = fun () -> ()) (module O : Ops) ~n ~sign ~flops =
  let bits = log2i n in
  on_pass ();
  for i = 0 to n - 1 do
    let j = bit_reverse ~bits i in
    if i < j then begin
      let xi = O.get i and xj = O.get j in
      O.set i xj;
      O.set j xi
    end
  done;
  let len = ref 2 in
  while !len <= n do
    on_pass ();
    let half = !len / 2 in
    let ang = sign *. 2.0 *. Dvf_util.Maths.pi /. float_of_int !len in
    let wlen = { Complex.re = cos ang; im = sin ang } in
    let base = ref 0 in
    while !base < n do
      let w = ref Complex.one in
      for o = 0 to half - 1 do
        let i = !base + o in
        let j = i + half in
        let u = O.get i in
        let v = Complex.mul (O.get j) !w in
        O.set i (Complex.add u v);
        O.set j (Complex.sub u v);
        w := Complex.mul !w wlen;
        flops 10
      done;
      base := !base + !len
    done;
    len := !len * 2
  done

let gen_signal p =
  let rng = Dvf_util.Rng.create p.seed in
  Array.init p.n (fun _ ->
      {
        Complex.re = Dvf_util.Rng.float rng 2.0 -. 1.0;
        im = Dvf_util.Rng.float rng 2.0 -. 1.0;
      })

let array_ops (a : Complex.t array) =
  (module struct
    let get i = a.(i)
    let set i v = a.(i) <- v
  end : Ops)

let roundtrip_error p signal =
  let work = Array.copy signal in
  let no_flops _ = () in
  transform (array_ops work) ~n:p.n ~sign:(-1.0) ~flops:no_flops;
  transform (array_ops work) ~n:p.n ~sign:1.0 ~flops:no_flops;
  let err = ref 0.0 in
  let scale = float_of_int p.n in
  Array.iteri
    (fun i x ->
      let d = Complex.sub (Complex.div x { Complex.re = scale; im = 0.0 }) signal.(i) in
      err := Float.max !err (Complex.norm d))
    work;
  !err

let finish p ~flops data signal =
  let checksum = Array.fold_left (fun acc x -> acc +. Complex.norm x) 0.0 data in
  { checksum; max_roundtrip_error = roundtrip_error p signal; flops }

let run registry tape p =
  let signal = gen_signal p in
  let x =
    Tracked.create registry tape ~name:"X" ~elem_size:16 (Array.copy signal)
  in
  let flop_total = ref 0 in
  let flops n = flop_total := !flop_total + n in
  let ops =
    (module struct
      let get = Tracked.get x
      let set = Tracked.set x
    end : Ops)
  in
  for _ = 1 to p.repeats do
    transform ops ~n:p.n ~sign:(-1.0) ~flops
  done;
  finish p ~flops:!flop_total (Tracked.to_array x) signal

let run_untraced p =
  let signal = gen_signal p in
  let work = Array.copy signal in
  let flop_total = ref 0 in
  let flops n = flop_total := !flop_total + n in
  for _ = 1 to p.repeats do
    transform (array_ops work) ~n:p.n ~sign:(-1.0) ~flops
  done;
  finish p ~flops:!flop_total work signal

let injection_passes p = p.repeats * (1 + log2i p.n)

(* Fault-injection entry: the forward transforms of [run_untraced] with
   one flip in the signal array before pass number [flip_at] (or after the
   last pass when [flip_at = injection_passes]).  The injectable floats
   are re(X) | im(X) (2n of them).  Returns the transformed array;
   [flip = Fun.id] reproduces [run_untraced]'s output bit-for-bit. *)
let run_injected p ~flip_at ~pick ~flip =
  let work = Array.copy (gen_signal p) in
  let inject () =
    let idx = pick (2 * p.n) in
    let e = idx mod p.n in
    let x = work.(e) in
    work.(e) <-
      (if idx < p.n then { x with Complex.re = flip x.Complex.re }
       else { x with Complex.im = flip x.Complex.im })
  in
  let step = ref 0 in
  let on_pass () =
    if !step = flip_at then inject ();
    incr step
  in
  let no_flops _ = () in
  for _ = 1 to p.repeats do
    transform ~on_pass (array_ops work) ~n:p.n ~sign:(-1.0) ~flops:no_flops
  done;
  if flip_at >= !step then inject ();
  work

let fft_in_place a =
  let n = Array.length a in
  if not (is_power_of_two n) then
    invalid_arg "Fft.fft_in_place: length must be a power of two";
  transform (array_ops a) ~n ~sign:(-1.0) ~flops:(fun _ -> ())

let naive_dft re im =
  let n = Array.length re in
  let out_re = Array.make n 0.0 and out_im = Array.make n 0.0 in
  for k = 0 to n - 1 do
    for t = 0 to n - 1 do
      let ang = -2.0 *. Dvf_util.Maths.pi *. float_of_int (k * t) /. float_of_int n in
      let c = cos ang and s = sin ang in
      out_re.(k) <- out_re.(k) +. (re.(t) *. c) -. (im.(t) *. s);
      out_im.(k) <- out_im.(k) +. (re.(t) *. s) +. (im.(t) *. c)
    done
  done;
  (out_re, out_im)

(* Template input: the same pass structure with phantom values. *)
let reference_stream p =
  let stream = Ref_stream.create () in
  let ops =
    (module struct
      let get i = Ref_stream.read stream i; Complex.zero
      let set i _ = Ref_stream.write stream i
    end : Ops)
  in
  let no_flops _ = () in
  for _ = 1 to p.repeats do
    transform ops ~n:p.n ~sign:(-1.0) ~flops:no_flops
  done;
  Ref_stream.to_arrays stream

let spec p =
  let refs, writes = reference_stream p in
  Ap.App_spec.make ~app_name:"FT"
    ~structures:
      [
        {
          Ap.App_spec.name = "X";
          bytes = 16 * p.n;
          pattern =
            Some
              (Ap.Pattern.Templated
                 (Ap.Template.make ~writes ~elem_size:16 refs));
        };
      ]
    ()

(* Make the executed template available to Aspen models:
   pattern template(elem = 16, provider = "ft/X"). *)
let () =
  Ap.Template_provider.register "ft/X" (fun env ->
      let get name = List.assoc_opt name env in
      let n =
        match get "n" with
        | Some n -> n
        | None -> failwith "provider \"ft/X\": model needs integer param 'n'"
      in
      let p =
        try make_params ?repeats:(get "repeats") ?seed:(get "seed") n
        with Invalid_argument m -> failwith m
      in
      let refs, writes = reference_stream p in
      (refs, Some writes))
