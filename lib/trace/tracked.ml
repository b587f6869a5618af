type 'a t = {
  storage : 'a array;
  region : Region.region;
  tape : Tape.t;
}

let create registry tape ~name ~elem_size storage =
  let region =
    Region.register registry ~name ~elements:(Array.length storage) ~elem_size
  in
  { storage; region; tape }

let make registry tape ~name ~elem_size n init =
  create registry tape ~name ~elem_size (Array.make n init)

let init registry tape ~name ~elem_size n f =
  create registry tape ~name ~elem_size (Array.init n f)

let length t = Array.length t.storage
let region t = t.region

let emit t i ~write =
  Tape.append t.tape ~owner:t.region.Region.id ~write
    ~addr:(Region.elem_addr t.region i) ~size:t.region.Region.elem_size

let get t i =
  emit t i ~write:false;
  t.storage.(i)

let set t i v =
  emit t i ~write:true;
  t.storage.(i) <- v

let get_silent t i = t.storage.(i)
let set_silent t i v = t.storage.(i) <- v

let touch t i = emit t i ~write:false
let touch_write t i = emit t i ~write:true

let to_array t = Array.copy t.storage
let unsafe_storage t = t.storage
