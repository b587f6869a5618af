(** Error reporting for the Aspen front end. *)

exception Error of { line : int; col : int; message : string }

val fail : line:int -> col:int -> string -> 'a
(** Raise {!Error}. *)

val to_string : exn -> string option
(** Render an {!Error} as "line L, column C: message", or as the bare
    message when it carries no position (line [0]: the semantic errors
    of compilation and evaluation); [None] for other exceptions. *)
