type scheme = No_ecc | Secded | Chipkill

let all = [ No_ecc; Chipkill; Secded ]

let name = function
  | No_ecc -> "No ECC"
  | Secded -> "SECDED"
  | Chipkill -> "Chipkill correct"

(* Table VII. *)
let fit = function
  | No_ecc -> 5000.0
  | Secded -> 1300.0
  | Chipkill -> 0.02

let degraded_time ~base_time ~degradation =
  if degradation < 0.0 then invalid_arg "Ecc.degraded_time: negative degradation";
  base_time *. (1.0 +. degradation)

let effective_fit ?(full_strength_degradation = 0.05) ~degradation scheme =
  if degradation < 0.0 then invalid_arg "Ecc.effective_fit: negative degradation";
  if full_strength_degradation <= 0.0 then
    invalid_arg "Ecc.effective_fit: non-positive full_strength_degradation";
  let base = fit No_ecc in
  let floor_fit = fit scheme in
  let strength =
    Dvf_util.Maths.clamp ~lo:0.0 ~hi:1.0
      (degradation /. full_strength_degradation)
  in
  (* Log-linear: FIT falls exponentially from the unprotected rate to the
     scheme's floor as the invested overhead approaches full strength. *)
  base *. ((floor_fit /. base) ** strength)

let protected_dvf ?full_strength_degradation ~degradation scheme
    (base : Dvf.app_dvf) =
  let fit = effective_fit ?full_strength_degradation ~degradation scheme in
  let time = degraded_time ~base_time:base.Dvf.time ~degradation in
  Dvf.rescale ~fit ~time base

let optimal_degradation ?full_strength_degradation ~max_degradation ~steps
    scheme base =
  if steps < 1 then invalid_arg "Ecc.optimal_degradation: steps < 1";
  let best = ref (0.0, infinity) in
  for i = 0 to steps do
    let d = max_degradation *. float_of_int i /. float_of_int steps in
    let dvf =
      (protected_dvf ?full_strength_degradation ~degradation:d scheme base)
        .Dvf.total
    in
    if dvf < snd !best then best := (d, dvf)
  done;
  !best
