(** Plain-text table rendering for the experiment reports.

    Every figure/table reproduction prints through this module so the
    [dvf] output has a uniform look and can be diffed between runs; [to_csv] gives
    a machine-readable export of the same rows. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given header cells and
    per-column alignment. *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width does not match the header. *)

val add_sep : t -> unit
(** Insert a horizontal separator before the next row. *)

val render : t -> string
(** Box-drawn ASCII rendering. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

val to_csv : t -> string
(** Header + rows as RFC-4180-ish CSV (quotes fields containing commas). *)

val cell_float : ?digits:int -> float -> string
(** Consistent float formatting for table cells ([digits] defaults to 4,
    engineering notation for very large/small magnitudes). *)

val cell_int : int -> string
