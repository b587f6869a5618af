(* Each tracked array owns one checked element range on its tape's
   head buffer, made when the array is: a traced access is one index
   check and one store of [first + i * step], with no [pack], no
   [Region.elem_addr] and no call through [Tape]. *)

module Words = Cachesim.Cache.Words

type 'a t = {
  storage : 'a array;
  region : Region.region;
  elems : Words.elems;
}

let create registry tape ~name ~elem_size storage =
  let count = Array.length storage in
  let region = Region.register registry ~name ~elements:count ~elem_size in
  let elems =
    Tape.elems tape ~owner:region.Region.id ~addr:region.Region.base
      ~size:elem_size ~count
  in
  { storage; region; elems }

let make registry tape ~name ~elem_size n init =
  create registry tape ~name ~elem_size (Array.make n init)

let init registry tape ~name ~elem_size n f =
  create registry tape ~name ~elem_size (Array.init n f)

let length t = Array.length t.storage
let region t = t.region

let get t i =
  Words.add_elem t.elems i ~write:false;
  t.storage.(i)

let set t i v =
  Words.add_elem t.elems i ~write:true;
  t.storage.(i) <- v

let get_silent t i = t.storage.(i)
let set_silent t i v = t.storage.(i) <- v

let touch t i = Words.add_elem t.elems i ~write:false
let touch_write t i = Words.add_elem t.elems i ~write:true

let to_array t = Array.copy t.storage
let unsafe_storage t = t.storage
