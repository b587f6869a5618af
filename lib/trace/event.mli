(** A single memory reference in a trace, as {!Tape.iter} and
    {!Tape.to_list} decode it.  Capture never builds one: kernels write
    straight into the tape ({!Tape.append}, or a tracked array's
    {!Tape.elems} range).

    [addr] is a byte address in the simulated address space laid out by
    {!Region}; [size] is the reference width in bytes; [owner] identifies
    the data structure the address belongs to. *)

type t = {
  owner : int;
  write : bool;
  addr : int;
  size : int;
}

val read : owner:int -> addr:int -> size:int -> t
val write : owner:int -> addr:int -> size:int -> t
val equal : t -> t -> bool
