(** Application model: named data structures plus their access patterns.

    This is the analytical (CGPMAC) description of one kernel — the same
    information the paper's extended-Aspen programs carry: the major data
    structures, each with a size and either a standalone pattern or a role
    in an access-order composition.  It is what the DVF engine evaluates
    and what Fig. 4 verifies against the cache simulator. *)

type structure = {
  name : string;
  bytes : int;                     (** S_d *)
  pattern : Pattern.t option;
      (** [None] when the structure's traffic comes from the
          composition. *)
}

type t = {
  app_name : string;
  structures : structure list;
  composition : Compose.t option;
      (** Couples the structures whose [pattern] is [None] (and possibly
          re-touches others). *)
}

val make :
  app_name:string -> structures:structure list ->
  ?composition:Compose.t -> unit -> t
(** Checks that no structure has a negative size and that every
    pattern-less structure is covered by the composition; raises
    [Invalid_argument] otherwise. *)

val main_memory_accesses :
  cache:Cachesim.Config.t -> t -> (string * float) list
(** Estimated [N_ha] per structure, in declaration order.  A structure
    appearing both standalone and in the composition gets the sum. *)

val structure_bytes : t -> (string * int) list

val total_bytes : t -> int
(** Working-set size: sum of structure sizes. *)

val cache_references : cache:Cachesim.Config.t -> t -> (string * float) list
(** Estimated program references (cache accesses) per structure — the
    [N_ha] term when DVF is evaluated for the cache component itself
    (see {!Pattern.references}). *)
