(** Aspen models as first-class workloads (the paper's Fig. 3 workflow:
    Aspen program in, DVF out).

    A compiled app becomes a {!Core.Workload.t} whose spec and flop count
    come from the model and whose tracer is the synthetic replay of the
    declared patterns ({!Core.Replay}), so registry consumers — DVF
    profiling, Fig. 4 trace verification, the CLI — treat it exactly like
    a built-in kernel. *)

val of_app : ?source:string -> Compile.app -> Core.Workload.t
(** [of_app ~source app] wraps a compiled app; [source] (e.g. the .aspen
    path) is recorded as provenance.  Both instance modes return the
    model's single problem scale.  Raises {!Errors.Error} when the app
    cannot be traced ({!Core.Replay.check}). *)

val register : ?source:string -> Compile.app -> Core.Workload.t
(** {!of_app} followed by {!Core.Workload.register}; returns the
    workload.  Raises [Invalid_argument] on a name collision (e.g. a
    model named like a built-in kernel). *)
