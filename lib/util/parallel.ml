(* A fixed-size pool of worker domains fed from a mutex/condition work
   queue.  Everything here is stdlib-only (Domain + Mutex + Condition);
   OCaml 5's runtime gives each domain its own minor heap, so the
   independent simulation jobs this module exists for (one kernel x one
   cache configuration each) never contend on allocation.

   Jobs must be independent: they may freely allocate and mutate their
   own state but must not share mutable structures.  [map] preserves
   input order in its output, so a parallel sweep returns exactly the
   rows a serial sweep would.  A job may itself call [map] on the pool
   that runs it: see [map] for why that cannot deadlock. *)

let recommended_jobs () = Domain.recommended_domain_count ()

module Pool = struct
  type t = {
    id : int;
    mutex : Mutex.t;
    work_available : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable stopping : bool;
    mutable workers : unit Domain.t array;
    size : int;
    telemetry : Telemetry.t;
  }

  let size t = t.size
  let next_id = Atomic.make 0

  (* The [id] of the pool whose worker this domain is; -1 in any domain
     no pool spawned. *)
  let worker_of = Domain.DLS.new_key (fun () -> -1)

  (* Workers drain the queue even while stopping, so a [shutdown] racing
     with in-flight [map] calls never strands a job. *)
  let rec worker_loop t =
    Mutex.lock t.mutex;
    let rec take () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if t.stopping then None
      else begin
        Condition.wait t.work_available t.mutex;
        take ()
      end
    in
    let task = take () in
    Mutex.unlock t.mutex;
    match task with
    | Some task ->
        task ();
        worker_loop t
    | None -> ()

  let create ?(telemetry = Telemetry.null) ?jobs () =
    let jobs =
      match jobs with Some j -> j | None -> recommended_jobs ()
    in
    if jobs <= 0 then
      invalid_arg
        (Printf.sprintf "Parallel.Pool.create: jobs must be positive (got %d)"
           jobs);
    let t =
      {
        id = Atomic.fetch_and_add next_id 1;
        mutex = Mutex.create ();
        work_available = Condition.create ();
        queue = Queue.create ();
        stopping = false;
        workers = [||];
        size = jobs;
        telemetry;
      }
    in
    (* A caller from outside the pool only enqueues and waits, so all
       [jobs] workers are spawned domains; [jobs = 1] spawns none and
       [map] degrades to the serial path in the calling domain. *)
    if jobs > 1 then
      t.workers <-
        Array.init jobs (fun _ ->
            Domain.spawn (fun () ->
                Domain.DLS.set worker_of t.id;
                worker_loop t));
    t

  type 'b outcome =
    | Pending
    | Done of 'b
    | Failed of exn * Printexc.raw_backtrace

  (* Elements are claimed by index from an atomic counter, so each runs
     exactly once whoever claims it.  The queue holds up to one claiming
     loop per worker that can help.  A caller that is itself a worker of
     [t] (a nested [map]) claims its own elements until none is left,
     then waits only for elements other workers have already claimed.
     It never takes another map's task while it waits, so every wait is
     on a task created after the waiting one started: the waits form no
     cycle, and the nesting depth bounds them. *)
  let map t f xs =
    let n = Array.length xs in
    if n = 0 then [||]
    else if Array.length t.workers = 0 then
      (* jobs = 1: run in the calling domain, bit-for-bit the serial path. *)
      Array.map f xs
    else begin
      let results = Array.make n Pending in
      let remaining = ref n in
      let next = Atomic.make 0 in
      let all_done = Condition.create () in
      let record i outcome =
        Mutex.lock t.mutex;
        results.(i) <- outcome;
        decr remaining;
        if !remaining = 0 then Condition.broadcast all_done;
        Mutex.unlock t.mutex
      in
      let run i =
        match f xs.(i) with
        | v -> record i (Done v)
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            record i (Failed (e, bt))
      in
      let run =
        if not (Telemetry.enabled t.telemetry) then run
        else begin
          (* Queue-wait vs compute accounting: the time from [map] being
             called to an element being claimed is wait; the element's
             body is compute.  Aggregated per pool, not per task, so the
             counters stay deterministic — only the times vary with
             scheduling. *)
          let enqueued = Telemetry.now_ns t.telemetry in
          fun i ->
            let started = Telemetry.now_ns t.telemetry in
            Telemetry.time_ns t.telemetry "pool/queue_wait"
              (Int64.sub started enqueued);
            Telemetry.add t.telemetry "pool/tasks";
            run i;
            Telemetry.time_ns t.telemetry "pool/compute"
              (Int64.sub (Telemetry.now_ns t.telemetry) started)
        end
      in
      let rec claim_all () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run i;
          claim_all ()
        end
      in
      let nested = Domain.DLS.get worker_of = t.id in
      Mutex.lock t.mutex;
      if t.stopping then begin
        Mutex.unlock t.mutex;
        invalid_arg "Parallel.Pool.map: pool already shut down"
      end;
      let helpers = if nested then min (n - 1) (t.size - 1) else min n t.size in
      for _ = 1 to helpers do
        Queue.add claim_all t.queue
      done;
      if helpers > 0 then Condition.broadcast t.work_available;
      if nested then begin
        Mutex.unlock t.mutex;
        claim_all ();
        Mutex.lock t.mutex
      end;
      while !remaining > 0 do
        Condition.wait all_done t.mutex
      done;
      Mutex.unlock t.mutex;
      (* Every job ran to completion; surface the first failure in input
         order (deterministic regardless of scheduling). *)
      Array.map
        (function
          | Done v -> v
          | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
          | Pending -> assert false)
        results
    end

  let map_list t f xs = Array.to_list (map t f (Array.of_list xs))

  let shutdown t =
    Mutex.lock t.mutex;
    t.stopping <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers
end

let with_pool ?telemetry ?jobs f =
  let pool = Pool.create ?telemetry ?jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let map ?telemetry ?jobs f xs =
  match jobs with
  | Some 1 -> Array.map f xs
  | _ -> with_pool ?telemetry ?jobs (fun pool -> Pool.map pool f xs)

let map_list ?telemetry ?jobs f xs =
  match jobs with
  | Some 1 -> List.map f xs
  | _ -> with_pool ?telemetry ?jobs (fun pool -> Pool.map_list pool f xs)
