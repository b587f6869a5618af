(** Lowering of Aspen ASTs onto the CGPMAC model library and the DVF
    engine — the role the paper's extended Aspen compiler plays in its
    Fig. 3 workflow. *)

type machine = {
  machine_name : string;
  cache : Cachesim.Config.t;
  fit : float;                 (** FIT/Mbit; defaults to 5000 (no ECC) *)
  perf : Core.Perf.machine;
}

type app = {
  app_name : string;
  spec : Access_patterns.App_spec.t;
  flops : int;                 (** 0 when not declared *)
  declared_time : float option;
  env : Eval.env;              (** evaluated parameters *)
}

val compile_machine : Ast.machine -> machine
(** Requires a [cache] section with [assoc], [sets] and [line]; [memory]
    ([fit]) and [perf] ([flops], [bandwidth]) are optional.  Raises
    {!Errors.Error} on missing or unknown fields. *)

val compile_app : ?overrides:Eval.env -> Ast.app -> app
(** Evaluate parameters (later declarations may refer to earlier ones;
    [overrides] win over declared values), lower every data declaration
    and the order block.  Raises {!Errors.Error} on semantic problems
    (undeclared structures in phases, missing pattern arguments,
    pattern-less structures not covered by the order, ...). *)

val machines : Ast.file -> machine list
val apps : ?overrides:Eval.env -> Ast.file -> app list

val find_machine : Ast.file -> string -> machine
(** Raises {!Errors.Error} when absent. *)

val find_app : ?overrides:Eval.env -> Ast.file -> string -> app

val dvf : machine -> app -> Core.Dvf.app_dvf
(** The Fig. 3 pipeline: {!Core.Dvf.of_spec} on the machine's cache, FIT
    and [perf] section — N_ha from the pattern models, evaluated once,
    and T from the roofline on that N_ha — then Eq. 1/2.  An app that
    declares its [time] gets that T instead, through {!Core.Dvf.rescale}
    on the same N_ha. *)
