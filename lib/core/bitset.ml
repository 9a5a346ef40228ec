(* 62 usable bits per word keeps the arithmetic comfortably inside
   OCaml's 63-bit native ints. *)
let bits = 62

type t = { n : int; words : int array }

let nwords n = (n + bits - 1) / bits
let create n = { n; words = Array.make (max 1 (nwords n)) 0 }

let mask_last n =
  let r = n mod bits in
  if r = 0 then -1 lsr 1 else (1 lsl r) - 1

let create_full n =
  let w = Array.make (max 1 (nwords n)) ((-1) lsr 1) in
  if n = 0 then w.(0) <- 0
  else begin
    (* clear the bits beyond [n] in every word up to full width *)
    Array.iteri
      (fun i _ ->
        let lo = i * bits in
        if lo >= n then w.(i) <- 0)
      w;
    let lastw = (n - 1) / bits in
    w.(lastw) <- w.(lastw) land mask_last n
  end;
  { n; words = w }

let length t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of bounds"

let mem t i =
  check t i;
  t.words.(i / bits) land (1 lsl (i mod bits)) <> 0

let add t i =
  check t i;
  t.words.(i / bits) <- t.words.(i / bits) lor (1 lsl (i mod bits))

let remove t i =
  check t i;
  t.words.(i / bits) <- t.words.(i / bits) land lnot (1 lsl (i mod bits))

let copy t = { n = t.n; words = Array.copy t.words }

(* SWAR popcount of one word: bits 0..61 only, so the 64-bit masks are
   cut to OCaml's 63-bit ints and the byte sums (at most 62) never
   carry *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  (x + (x lsr 32)) land 0x7f

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_domain a b =
  if a.n <> b.n then invalid_arg "Bitset: domain mismatch"

let equal a b =
  same_domain a b;
  Array.for_all2 (fun x y -> x = y) a.words b.words

let subset a b =
  same_domain a b;
  Array.for_all2 (fun x y -> x land lnot y = 0) a.words b.words

let map2 f a b =
  same_domain a b;
  { n = a.n; words = Array.map2 f a.words b.words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let complement a =
  let full = create_full a.n in
  diff full a

let inter_into a b =
  same_domain a b;
  Array.iteri (fun i w -> a.words.(i) <- a.words.(i) land w) b.words

let union_into a b =
  same_domain a b;
  Array.iteri (fun i w -> a.words.(i) <- a.words.(i) lor w) b.words

(* [f] is still called in index order, one word assembled at a time *)
let of_pred n f =
  let t = create n in
  for k = 0 to nwords n - 1 do
    let base = k * bits in
    let w = ref 0 in
    for b = 0 to min bits (n - base) - 1 do
      if f (base + b) then w := !w lor (1 lsl b)
    done;
    t.words.(k) <- !w
  done;
  t

let iter f t =
  Array.iteri
    (fun k w ->
      let w = ref w and i = ref (k * bits) in
      while !w <> 0 do
        if !w land 1 <> 0 then f !i;
        w := !w lsr 1;
        incr i
      done)
    t.words

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let for_all f t =
  let exception Stop in
  try
    iter (fun i -> if not (f i) then raise Stop) t;
    true
  with Stop -> false

let exists f t =
  let exception Stop in
  try
    iter (fun i -> if f i then raise Stop) t;
    false
  with Stop -> true

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let choose t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i

let pp fmt t =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ",")
       Format.pp_print_int)
    (to_list t)
