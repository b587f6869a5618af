type t = {
  owner : int;
  write : bool;
  addr : int;
  size : int;
}

let read ~owner ~addr ~size = { owner; write = false; addr; size }
let write ~owner ~addr ~size = { owner; write = true; addr; size }

let equal a b =
  a.owner = b.owner && a.write = b.write && a.addr = b.addr && a.size = b.size
