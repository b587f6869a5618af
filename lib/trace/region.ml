type region = {
  id : int;
  name : string;
  base : int;
  bytes : int;
  elem_size : int;
}

type t = {
  page : int;
  stagger : int;
  mutable next_base : int;
  mutable next_id : int;
  mutable ordered : region list; (* reversed *)
  by_name : (string, region) Hashtbl.t;
}

let create ?(page = 4096) ?(stagger = 832) () =
  if page <= 0 then invalid_arg "Region.create: non-positive page";
  if stagger < 0 then invalid_arg "Region.create: negative stagger";
  if stagger mod 64 <> 0 then
    invalid_arg "Region.create: stagger must be a multiple of 64 (line-aligned)";
  {
    page;
    stagger;
    (* Start away from address 0 so a zero address is always a bug. *)
    next_base = page;
    next_id = 1;
    ordered = [];
    by_name = Hashtbl.create 16;
  }

let round_up n unit = (n + unit - 1) / unit * unit

let register t ~name ~elements ~elem_size =
  if elements < 0 then invalid_arg "Region.register: negative element count";
  if elem_size <= 0 then invalid_arg "Region.register: non-positive element size";
  if Hashtbl.mem t.by_name name then
    invalid_arg ("Region.register: duplicate region name " ^ name);
  let bytes = elements * elem_size in
  let base = t.next_base + (t.next_id * t.stagger) in
  let r = { id = t.next_id; name; base; bytes; elem_size } in
  t.next_id <- t.next_id + 1;
  (* Pad with one extra page so distinct regions never share a line, on
     top of the set-decorrelating stagger. *)
  t.next_base <-
    round_up (base + max bytes 1) t.page + t.page;
  t.ordered <- r :: t.ordered;
  Hashtbl.add t.by_name name r;
  r

let lookup t name = Hashtbl.find t.by_name name

let find_id t id = List.find_opt (fun r -> r.id = id) (List.rev t.ordered)

let regions t = List.rev t.ordered

let elem_addr r i =
  if i < 0 || (i + 1) * r.elem_size > r.bytes then
    invalid_arg (Printf.sprintf "Region.elem_addr: index %d out of %s" i r.name);
  r.base + (i * r.elem_size)

let owner_name t id =
  match find_id t id with
  | Some r -> r.name
  | None -> Printf.sprintf "<anon:%d>" id

(* Persistence hooks for [Tape_io]: a registry is fully determined by its
   layout parameters plus the ordered region list, so exporting those and
   replaying them through [restore] reproduces an indistinguishable
   registry — including [next_base]/[next_id], so further registrations
   land exactly where they would have on the original. *)

let export t =
  ( t.page,
    t.stagger,
    List.rev_map
      (fun r -> (r.id, r.name, r.base, r.bytes, r.elem_size))
      t.ordered )

let restore ~page ~stagger entries =
  let t = create ~page ~stagger () in
  List.iter
    (fun (id, name, base, bytes, elem_size) ->
      if id <> t.next_id then
        invalid_arg
          (Printf.sprintf "Region.restore: region %s has id %d, expected %d"
             name id t.next_id);
      if elem_size <= 0 then
        invalid_arg ("Region.restore: non-positive element size for " ^ name);
      if bytes < 0 then
        invalid_arg ("Region.restore: negative extent for " ^ name);
      if base <> t.next_base + (t.next_id * t.stagger) then
        invalid_arg
          (Printf.sprintf
             "Region.restore: region %s base %d does not match layout \
              (expected %d)"
             name base
             (t.next_base + (t.next_id * t.stagger)));
      if Hashtbl.mem t.by_name name then
        invalid_arg ("Region.restore: duplicate region name " ^ name);
      let r = { id; name; base; bytes; elem_size } in
      t.next_id <- t.next_id + 1;
      t.next_base <- round_up (base + max bytes 1) t.page + t.page;
      t.ordered <- r :: t.ordered;
      Hashtbl.add t.by_name name r)
    entries;
  t
