(** A minimal JSON value type with an emitter and a parser.

    Just enough JSON for the telemetry subsystem: {!Telemetry} serializes
    its metrics with {!to_string}, tests and CI round-trip the emitted
    documents with {!of_string}, and [dvf serve] speaks it line by line
    ({!parse_line}).  No external dependency (yojson is not in the
    toolchain this repo builds against).

    Object member order is preserved as given; emitters that need
    deterministic output (telemetry does) sort their members before
    constructing the object. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Serialize.  [indent] (default [true]) pretty-prints with two-space
    indentation; [false] emits a compact single line.  Floats are printed
    with enough digits to round-trip ([%.17g]); non-finite floats are
    emitted as [null] (JSON has no representation for them). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document.  Numbers without [.]/[e] that fit in
    an OCaml [int] parse as [Int], everything else as [Float].  The error
    string names the offending byte offset.  Trailing garbage after the
    toplevel value is rejected. *)

val parse_line : string -> (t option, string) result
(** One line of a line-JSON protocol ([dvf serve]/[dvf query]).  Strips
    an optional trailing ['\r'], maps a blank line to [Ok None], and
    otherwise parses the line as one complete document ([Ok (Some v)]).
    Garbage after the value is an error, same as {!of_string}. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to the first [k]; [None] for
    a missing key or a non-object. *)

val equal : t -> t -> bool
(** Structural equality ([Int 1] <> [Float 1.]). *)
