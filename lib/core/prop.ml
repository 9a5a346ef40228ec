(* A predicate is its pointwise meaning [eval] plus, where the
   combinators could keep it, a [shape] that [extent] walks instead of
   calling [eval] on every stored computation. [Opaque] is the only
   shape whose extent needs one call per computation; a tree with no
   other leaf stays [Opaque] itself, so an all-opaque formula costs one
   composed call per computation, as before. *)
type t = { name : string; eval : Trace.t -> bool; shape : shape }

and shape =
  | Opaque
  | Const of bool
  | Local of Pid.t * (Event.t list -> bool)
  | Not of t
  | Bin of binop * t * t
  | Extent of Universe.t * Bitset.t

and binop = And | Or | Implies | Iff

let make name eval = { name; eval; shape = Opaque }
let name b = b.name
let eval b x = b.eval x
let holds = eval
let rename name b = { b with name }
let structured b = match b.shape with Opaque -> false | _ -> true
let tt = { name = "true"; eval = (fun _ -> true); shape = Const true }
let ff = { name = "false"; eval = (fun _ -> false); shape = Const false }
let const c = if c then tt else ff

let local p name f =
  { name; eval = (fun x -> f (Trace.proj x p)); shape = Local (p, f) }

let not_ b =
  {
    name = Printf.sprintf "¬(%s)" b.name;
    eval = (fun x -> not (b.eval x));
    shape = (if structured b then Not b else Opaque);
  }

let bin op sym eval a b =
  {
    name = Printf.sprintf "(%s %s %s)" a.name sym b.name;
    eval;
    shape = (if structured a || structured b then Bin (op, a, b) else Opaque);
  }

let and_ a b = bin And "∧" (fun x -> a.eval x && b.eval x) a b
let or_ a b = bin Or "∨" (fun x -> a.eval x || b.eval x) a b
let implies a b = bin Implies "⇒" (fun x -> (not (a.eval x)) || b.eval x) a b
let iff a b = bin Iff "⇔" (fun x -> Bool.equal (a.eval x) (b.eval x)) a b

let conj = function
  | [] -> tt
  | b :: rest -> List.fold_left and_ b rest

let disj = function
  | [] -> ff
  | b :: rest -> List.fold_left or_ b rest

let local_event_count p f name = local p name (fun h -> f (List.length h))

let per_computation u b =
  Hpl_obs.count "prop.extent.evals" (Universe.size u);
  Bitset.of_pred (Universe.size u) (fun i -> b.eval (Universe.comp u i))

(* §4.2 fact 1: a predicate local to [p] is constant on each [p]-class,
   so it is evaluated once, on the first member of each class. Class
   ids are numbered in first-occurrence order, so the id at index [i]
   is at most [i] and a [size]-long table covers them all. *)
let per_class u p f =
  let size = Universe.size u in
  let ids = Universe.class_ids u p in
  let value = Bytes.make size '\002' in
  let evals = ref 0 in
  let s =
    Bitset.of_pred size (fun i ->
        let c = ids.(i) in
        match Bytes.get value c with
        | '\002' ->
            incr evals;
            let v = f (Trace.proj (Universe.comp u i) p) in
            Bytes.set value c (if v then '\001' else '\000');
            v
        | v -> v = '\001')
  in
  Hpl_obs.count "prop.extent.evals" !evals;
  s

let rec extent_of u b =
  match b.shape with
  | Opaque -> per_computation u b
  | Const c ->
      if c then Bitset.create_full (Universe.size u)
      else Bitset.create (Universe.size u)
  | Local (p, f) ->
      if Pid.to_int p < Spec.n (Universe.spec u) then per_class u p f
      else per_computation u b
  | Extent (v, s) -> if v == u then Bitset.copy s else per_computation u b
  | Not a -> Bitset.complement (extent_of u a)
  | Bin (op, a, c) -> (
      let x = extent_of u a and y = extent_of u c in
      match op with
      | And ->
          Bitset.inter_into x y;
          x
      | Or ->
          Bitset.union_into x y;
          x
      | Implies -> Bitset.union (Bitset.complement x) y
      | Iff ->
          Bitset.complement (Bitset.union (Bitset.diff x y) (Bitset.diff y x)))

let extent u b =
  Hpl_obs.span "prop.extent"
    ~args:(fun () ->
      [ ("prop", b.name); ("size", string_of_int (Universe.size u)) ])
  @@ fun () -> extent_of u b

let of_extent u name s =
  {
    name;
    eval = (fun x -> Bitset.mem s (Universe.find_exn u x));
    shape = Extent (u, s);
  }

let respects_interleaving u b =
  let n = Universe.size u in
  let ids = Universe.pset_class_ids u (Spec.all (Universe.spec u)) in
  let value : (int, bool) Hashtbl.t = Hashtbl.create n in
  let ok = ref true in
  Universe.iter
    (fun i x ->
      let v = b.eval x in
      match Hashtbl.find_opt value ids.(i) with
      | None -> Hashtbl.add value ids.(i) v
      | Some v' -> if v <> v' then ok := false)
    u;
  !ok

let is_constant u b =
  match Universe.size u with
  | 0 -> true
  | _ ->
      let v0 = b.eval (Universe.comp u 0) in
      let ok = ref true in
      Universe.iter (fun _ x -> if b.eval x <> v0 then ok := false) u;
      !ok

let pp fmt b = Format.pp_print_string fmt b.name
