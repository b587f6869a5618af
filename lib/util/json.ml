type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- emitter --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.17g" f in
    (* "%.17g" can print "1e+20" or "42"; the latter must keep a marker so
       the value reparses as a float. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let to_string ?(indent = true) v =
  let buf = Buffer.create 256 in
  let pad depth =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            emit (depth + 1) item)
          items;
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            escape_string buf k;
            Buffer.add_string buf (if indent then ": " else ":");
            emit (depth + 1) item)
          members;
        pad depth;
        Buffer.add_char buf '}'
  in
  emit 0 v;
  if indent then Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parser: plain recursive descent over the input string --- *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> error (Printf.sprintf "expected %C" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> error "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  if !pos + 4 > n then error "truncated \\u escape";
                  let hex = String.sub s !pos 4 in
                  let code =
                    match int_of_string_opt ("0x" ^ hex) with
                    | Some c -> c
                    | None -> error (Printf.sprintf "bad \\u escape %S" hex)
                  in
                  pos := !pos + 4;
                  (* UTF-8 encode the code point (no surrogate pairing —
                     the telemetry emitter only escapes control bytes). *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char buf
                      (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
              | c -> error (Printf.sprintf "bad escape \\%c" c));
              loop ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text in
    if is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> error (Printf.sprintf "bad number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec members_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            members := (k, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members_loop ()
            | Some '}' -> advance ()
            | _ -> error "expected ',' or '}'"
          in
          members_loop ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> error "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* Line-JSON: one toplevel value per line.  Strips an optional trailing
   CR (so piping through tools that emit CRLF still parses) and maps a
   blank line to [None] rather than a parse error, which lets protocol
   loops skip keep-alive newlines without special-casing. *)
let parse_line line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if String.for_all (fun c -> c = ' ' || c = '\t') line then Ok None
  else Result.map Option.some (of_string line)

let member k = function
  | Obj members -> List.assoc_opt k members
  | _ -> None

let equal (a : t) (b : t) = a = b

(* --- codecs: one declaration gives the encoder and the decoder --- *)

module Codec = struct
  type json = t

  (* [dec what j]: [what] names the enclosing object in error messages. *)
  type 'a t = { enc : 'a -> json; dec : string -> json -> 'a }

  let encode c v = c.enc v
  let decode ?(what = "JSON value") c j = c.dec what j

  let scalar expected enc dec =
    {
      enc;
      dec =
        (fun what j ->
          match dec j with
          | Some v -> v
          | None -> failwith (what ^ ": expected " ^ expected));
    }

  let int =
    scalar "an integer" (fun i -> Int i) (function Int i -> Some i | _ -> None)

  (* An integer is a number too: other encoders print whole floats
     without a fraction. *)
  let float =
    scalar "a number"
      (fun f -> Float f)
      (function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None)

  let string =
    scalar "a string" (fun s -> Str s) (function Str s -> Some s | _ -> None)

  let bool =
    scalar "a boolean" (fun b -> Bool b) (function Bool b -> Some b | _ -> None)

  let option c =
    {
      enc = (function Some v -> c.enc v | None -> Null);
      dec = (fun what -> function Null -> None | j -> Some (c.dec what j));
    }

  let list c =
    {
      enc = (fun vs -> List (List.map c.enc vs));
      dec =
        (fun what -> function
          | List js -> List.map (c.dec what) js
          | _ -> failwith (what ^ ": expected a list"));
    }

  let array c =
    let l = list c in
    {
      enc = (fun a -> l.enc (Array.to_list a));
      dec = (fun what j -> Array.of_list (l.dec what j));
    }

  (* An object under construction: the members declared so far
     (reversed), and a decoder that applies the constructor to their
     values in declaration order, leaving ['k] to take the rest. *)
  type ('o, 'k) obj = {
    name : string;
    members : ('o -> string * json) list;
    build : json -> 'k;
  }

  let obj name k = { name; members = []; build = (fun _ -> k) }

  let field key c get o =
    {
      o with
      members = (fun v -> (key, c.enc (get v))) :: o.members;
      build =
        (fun j ->
          let k = o.build j in
          match member key j with
          | Some v -> k (c.dec o.name v)
          | None -> failwith (Printf.sprintf "%s: missing field %S" o.name key));
    }

  let finish o =
    let members = List.rev o.members in
    {
      enc = (fun v -> Obj (List.map (fun m -> m v) members));
      dec = (fun _ j -> o.build j);
    }
end
