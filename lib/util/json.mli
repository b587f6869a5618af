(** A minimal JSON value type with an emitter, a parser and typed
    codecs.

    {!Telemetry} serializes its metrics with {!to_string}, tests and CI
    round-trip the emitted documents with {!of_string}, and [dvf serve]
    speaks it line by line ({!parse_line}), declaring each row type it
    serves once as a {!Codec}.  No external dependency (yojson is not in
    the toolchain this repo builds against).

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

(** Bidirectional codecs: one declaration of a type's JSON form gives
    both its encoder and its decoder, so the two cannot drift apart.
    An object is declared as its name, a constructor taking the members
    in wire order, and one {!field} per member:

    {[
      let point =
        Codec.(
          obj "point" (fun x y -> { x; y })
          |> field "x" float (fun p -> p.x)
          |> field "y" float (fun p -> p.y)
          |> finish)
    ]}

    [encode point] emits the members in declaration order.  [decode
    point] looks each one up by key (any order, extra keys ignored) and
    raises [Failure] naming the object: ["point: missing field \"y\""],
    or ["point: expected a number"] for a member of the wrong type. *)
module Codec : sig
  type json := t
  type 'a t

  val encode : 'a t -> 'a -> json

  val decode : ?what:string -> 'a t -> json -> 'a
  (** Raises [Failure] on malformed input.  [what] (default ["JSON
      value"]) names the value in the errors of a non-object codec; an
      object codec names itself. *)

  val int : int t

  val float : float t
  (** Emitted as [Float]; decodes [Int] too. *)

  val string : string t
  val bool : bool t

  val option : 'a t -> 'a option t
  (** [None] is [null]. *)

  val list : 'a t -> 'a list t
  val array : 'a t -> 'a array t

  type ('o, 'k) obj
  (** An object codec for ['o] under construction; ['k] is what its
      constructor still takes. *)

  val obj : string -> 'k -> ('o, 'k) obj

  val field :
    string -> 'a t -> ('o -> 'a) -> ('o, 'a -> 'k) obj -> ('o, 'k) obj
  (** [field key codec get] adds the next member: [get] reads it for the
      encoder; its decoded value is the constructor's next argument. *)

  val finish : ('o, 'o) obj -> 'o t
end
