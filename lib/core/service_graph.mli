(** Service dependency graphs — the workload family that carries DVF
    beyond single-kernel main memory (paper §I: DVF applies to any
    component whose errors corrupt application outcomes).

    A graph is a validated DAG of components (services, queues, stores)
    rooted at a client, plus a weighted endpoint mix in the style of the
    DeathStarBench resilience models: each endpoint names the component
    set that must be alive — and reachable from the client along call
    edges — for a request of that class to succeed.

    Two consumers share the declaration:
    - {!spec}/{!trace} synthesize the endpoint mix into memory traffic
      over each component's resident state, so a service graph flows
      through the existing tape/replay/hierarchy pipeline (DVF tables,
      [--levels], [--time-weighted], [dvf windows]) like any kernel;
    - {!evaluator} answers availability queries ("with these components
      killed, does this endpoint still succeed?") for
      {!Fault_model.component_kill} chaos campaigns. *)

type kind = Service | Queue | Store

val kind_name : kind -> string
(** ["service"], ["queue"], ["store"]. *)

type component = {
  name : string;
  kind : kind;
  state_bytes : int;   (** resident state: caches, buffers, rows *)
  calls : string list; (** direct downstream dependencies *)
}

type endpoint = {
  endpoint : string;
  targets : string list;
      (** components that must be alive and reachable for a request to
          succeed; the client is implicit in every endpoint *)
  weight : float;  (** share of the request mix, normalized to sum 1 *)
}

type t = private {
  graph_name : string;
  client : string;  (** entry component; every request starts here *)
  components : component list;
  endpoints : endpoint list;
}

val component :
  ?kind:kind -> ?calls:string list -> name:string -> state_bytes:int ->
  unit -> component
(** [kind] defaults to [Service], [calls] to []. *)

val endpoint : name:string -> weight:float -> targets:string list -> endpoint

val make :
  name:string -> client:string -> components:component list ->
  endpoints:endpoint list -> unit -> t
(** Validates the declaration and normalizes endpoint weights to sum 1.
    Raises [Invalid_argument] naming the offender when: a component name
    is empty or duplicated; a call or endpoint target names an unknown
    component; a component calls itself; the call graph has a cycle; the
    client is unknown; an endpoint name is duplicated or its target list
    empty; a weight is non-positive or non-finite; or a target is
    unreachable from the client even with every component alive. *)

val component_names : t -> string list
(** Declaration order. *)

val endpoint_names : t -> string list
(** Declaration order. *)

val touched : t -> endpoint -> component list
(** The components a request of this endpoint touches: the client plus
    the endpoint's targets, in graph declaration order. *)

val available : t -> killed:string list -> string -> bool
(** [available t ~killed endpoint]: with the [killed] components down,
    is the endpoint still served?  True iff the client is alive and
    every target is reachable from the client along call edges through
    alive components only.  Raises [Invalid_argument] on unknown
    endpoint or killed-component names. *)

val evaluator : t -> killed:int array -> endpoint:int -> bool
(** Index-based {!available} for campaign inner loops ([killed] holds
    component indices, [endpoint] an endpoint index, both in declaration
    order); adjacency is precomputed when the graph is partially
    applied. *)

val spec : requests:int -> t -> Access_patterns.App_spec.t
(** The CGPMAC view of [requests] requests drawn from the endpoint mix:
    one structure per touched component (client included), each modeled
    as {!Access_patterns.Random_access} visits into its resident state —
    per-request touch runs sized by component kind, iteration counts
    from the mix weights, cache shares proportional to state size.
    Raises [Invalid_argument] on [requests < 1]. *)

val flops : requests:int -> t -> int
(** Request-handling work for the {!Perf} roofline: proportional to the
    elements touched by the expected mix. *)

val trace :
  ?seed:int -> requests:int -> t -> Memtrace.Region.t ->
  Memtrace.Tape.t -> unit
(** Append the synthesized reference stream {!spec} models to the
    tape: one region per touched component, a construction traverse of
    each, then [requests] requests — endpoints scheduled by
    largest-remainder weighted round-robin (so executed counts match the
    mix deterministically), each touching its components with one
    contiguous random run per component.  Offsets come from per-component splitmix64 children of
    [seed] (default 42), so the trace is bit-reproducible. *)

val social_network : t
(** The built-in example: a DeathStarBench-style social network — web
    client, timeline/compose/user services, write-behind queue and three
    backing stores, with a 60/30/10 home-timeline / user-timeline /
    compose-post request mix. *)
