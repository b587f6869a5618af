(** Simulated address space and data-structure (region) registry.

    The kernels do not run at native addresses, so the registry lays out
    each named data structure in a flat simulated address space.  Regions
    are page-aligned and separated so that two structures never share a
    cache line — the same property the authors obtain from Pin by mapping
    virtual addresses back to `malloc`d structures. *)

type t
(** A registry (one per kernel run). *)

type region = private {
  id : int;           (** owner id used in events and cache stats *)
  name : string;
  base : int;         (** byte base address, line aligned *)
  bytes : int;        (** extent in bytes *)
  elem_size : int;    (** logical element size in bytes *)
}

val create : ?page:int -> ?stagger:int -> unit -> t
(** [page] is the padding unit between regions (default 4096).
    [stagger] (default 832 bytes, a line-aligned odd multiple of 64)
    offsets each successive region's base by
    an extra [id * stagger] bytes so that distinct structures do not map
    to the same cache sets — mirroring real allocators, where large arrays
    land at varied offsets.  Page-aligning every structure identically
    would manufacture pathological set conflicts (e.g. a stencil grid, its
    solution array and its right-hand side all colliding in one set) that
    neither real systems nor the paper's fully-associative models
    exhibit.  Pass [~stagger:0] to study exactly that pathology. *)

val register : t -> name:string -> elements:int -> elem_size:int -> region
(** Allocate a fresh region of [elements * elem_size] bytes.  Names must be
    unique within a registry; raises [Invalid_argument] otherwise. *)

val lookup : t -> string -> region
(** Raises [Not_found]. *)

val find_id : t -> int -> region option
val regions : t -> region list
(** In registration order. *)

val elem_addr : region -> int -> int
(** [elem_addr r i] is the byte address of element [i]; bounds-checked. *)

val owner_name : t -> int -> string
(** Name for an owner id, or ["<anon:ID>"] if unknown. *)

(** {2 Persistence}

    Hooks for {!Tape_io}: a registry is fully determined by its layout
    parameters plus the ordered region list. *)

val export : t -> int * int * (int * string * int * int * int) list
(** [export t] is [(page, stagger, entries)] with one
    [(id, name, base, bytes, elem_size)] entry per region in
    registration order. *)

val restore :
  page:int -> stagger:int -> (int * string * int * int * int) list -> t
(** Rebuild a registry from {!export}ed data.  The result is
    indistinguishable from the original — ids, bases and the internal
    allocation cursor all match, so further {!register} calls land
    exactly where they would have.  Raises [Invalid_argument] when an
    entry is inconsistent with the deterministic layout (wrong id
    sequence, base not matching the page/stagger rule, duplicate name),
    so a corrupt or hand-edited tape file cannot smuggle in an
    impossible layout. *)
