exception Error of { line : int; col : int; message : string }

let fail ~line ~col message = raise (Error { line; col; message })

(* Semantic errors ([Compile], [Eval]) carry no position: line 0. *)
let to_string = function
  | Error { line; message; _ } when line <= 0 -> Some message
  | Error { line; col; message } ->
      Some (Printf.sprintf "line %d, column %d: %s" line col message)
  | _ -> None
