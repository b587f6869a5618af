(** A template reference stream recorded in place.

    The template inputs of {!Fft.spec} and {!Multigrid.spec} come from
    running the kernel's loop nest with phantom values and recording
    each element index touched, in order.
    The stream is kept in fixed-size chunks of unboxed [int]s, a store
    as [lnot idx], and is decoded once into the [(refs, writes)] pair
    {!Access_patterns.Template.make} takes. *)

type t

val create : unit -> t

val read : t -> int -> unit
(** Record a load of element [idx]. *)

val write : t -> int -> unit
(** Record a store to element [idx]. *)

val to_arrays : t -> int array * bool array
(** The recorded indices in order, and for each whether it was a
    store. *)
