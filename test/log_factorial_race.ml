(* Regression test for a first-call race in [Dvf_util.Maths.log_factorial]:
   its table used to be a [lazy] value, and two domains forcing it at the
   same moment made the loser raise [CamlinternalLazy.Undefined].  Only
   the very first calls in a process can race, so the test re-runs
   itself as a fresh child process several times; each child releases a
   few domains from an [Atomic] barrier straight into their first
   [log_factorial] call. *)

let domains = 4
let runs = 20

let child () =
  let arrived = Atomic.make 0 in
  let worker () =
    Atomic.incr arrived;
    while Atomic.get arrived < domains do
      Domain.cpu_relax ()
    done;
    Dvf_util.Maths.log_factorial 10
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  let expected = log 3628800.0 in
  let ok =
    List.for_all
      (fun d ->
        match Domain.join d with
        | v -> Float.abs (v -. expected) < 1e-9
        | exception e ->
            prerr_endline ("log_factorial raised " ^ Printexc.to_string e);
            false)
      ds
  in
  exit (if ok then 0 else 1)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "child" then child ()
  else
    let failures = ref 0 in
    for _ = 1 to runs do
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "child" |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> incr failures
    done;
    if !failures > 0 then begin
      Printf.eprintf "log_factorial first-call race: %d of %d runs failed\n"
        !failures runs;
      exit 1
    end
