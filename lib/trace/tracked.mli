(** Instrumented arrays — the reproduction's Pin.

    A tracked array couples real storage with a {!Region} so that every
    [get]/[set] both performs the computation and appends the
    corresponding memory reference to the array's {!Tape}.  Kernels
    written against this module therefore produce numerically correct
    results *and* a faithful per-structure address stream, which is what
    Pin gave the paper's authors.

    The [elem_size] of the region may differ from OCaml's in-memory
    representation (e.g. a "4-byte integer array" is stored in an OCaml
    [int array] but traced with [elem_size = 4]); the trace reflects the
    modeled layout, not OCaml's.

    Each array checks its whole element range once, when it is created
    ({!Tape.elems}), so a traced access is an index check and one store
    into the tape: it packs nothing and allocates nothing.  A traced
    {!get} of a [float] array still returns a boxed float (the accessor
    is polymorphic and out of line); hot loops over floats {!touch} the
    element and read {!unsafe_storage} instead. *)

type 'a t

val create :
  Region.t -> Tape.t -> name:string -> elem_size:int -> 'a array -> 'a t
(** Wrap [storage]; registers a region of [Array.length storage] elements.
    The array is owned by the tracked wrapper afterwards.  Raises
    [Invalid_argument] when the region's first or last element is not a
    traceable event ({!Cachesim.Cache.pack}: an owner id past
    {!Cachesim.Cache.max_owner}, an [elem_size] past
    {!Cachesim.Cache.max_size}, or a byte past
    {!Cachesim.Cache.max_addr}). *)

val make :
  Region.t -> Tape.t -> name:string -> elem_size:int -> int -> 'a -> 'a t
(** [make reg tape ~name ~elem_size n init] wraps [Array.make n init]. *)

val init :
  Region.t -> Tape.t -> name:string -> elem_size:int -> int ->
  (int -> 'a) -> 'a t
(** Like [Array.init]; construction is untraced (the paper's models ignore
    initialization phases — "we focus on the major computation parts ...
    and ignore initialization and finalization"). *)

val length : 'a t -> int
val region : 'a t -> Region.region

val get : 'a t -> int -> 'a
(** Traced element read.  Raises [Invalid_argument] on an index outside
    the array, recording nothing. *)

val set : 'a t -> int -> 'a -> unit
(** Traced element write. *)

val get_silent : 'a t -> int -> 'a
(** Untraced read (for initialization/verification code). *)

val set_silent : 'a t -> int -> 'a -> unit
(** Untraced write. *)

val touch : 'a t -> int -> unit
(** Record a read of element [i] without using the value — models accesses to
    fields our OCaml representation stores elsewhere (e.g. a tree node's
    child pointers). *)

val touch_write : 'a t -> int -> unit
(** Record a write of element [i] without storing a value (the counterpart of
    {!touch} for modeled stores, e.g. accumulating a force into a particle
    record). *)

val to_array : 'a t -> 'a array
(** Untraced snapshot copy. *)

val unsafe_storage : 'a t -> 'a array
(** The live backing store.  A kernel's hot loop reads it right after a
    traced {!touch} of the same element — for a [float] array that read
    is unboxed, where {!get} would box — so the trace and the value stay
    in step.  A read or write through it without a {!touch} or
    {!touch_write} is untraced by design. *)
