type mode = [ `Full | `Canonical ]

type budget = { max_states : int option; max_seconds : float option }

let budget ?max_states ?max_seconds () =
  (match max_states with
  | Some k when k < 1 -> invalid_arg "Universe.budget: max_states < 1"
  | _ -> ());
  (match max_seconds with
  | Some s when s <= 0.0 -> invalid_arg "Universe.budget: max_seconds <= 0"
  | _ -> ());
  { max_states; max_seconds }

let no_budget = { max_states = None; max_seconds = None }

type trunc_reason = Max_states of int | Max_seconds of float

type status = Complete | Truncated of trunc_reason

let reason_to_string = function
  | Max_states k -> Printf.sprintf "state budget reached (max_states = %d)" k
  | Max_seconds s -> Printf.sprintf "time budget reached (max_seconds = %g)" s

module TraceTbl = Hashtbl.Make (struct
  type t = Trace.t

  let equal = Trace.equal
  let hash = Trace.hash
end)

(* Interning table for incremental per-process projections. A local
   computation is identified by the pair (class id of its immediate
   prefix, final event) — a hash-consed trie over local histories, so
   extending a projection by one event costs O(1) instead of hashing
   the whole event list. *)
module StepTbl = Hashtbl.Make (struct
  type t = int * Event.t

  let equal (i, e) (j, f) = Int.equal i j && Event.equal e f
  let hash (i, e) = Hashtbl.hash (i, Event.hash e)
end)

type t = {
  spec : Spec.t;
  mode : mode;
  depth : int;
  status : status;
  reduce : Reduction.t;
  comps : Trace.t array;
  idx : int TraceTbl.t;
  class_ids_by_pid : int array array; (* pid index -> comp index -> class id *)
  orbit_idx : int Symmetry.KeyTbl.t option; (* sym: orbit key -> index *)
  rep_sigma : Symmetry.perm array option;
      (* sym: per index, the σ whose action on the stored representative
         attains its orbit key *)
  pset_ids_memo : (int list, int array) Hashtbl.t;
  classes_memo : (int list, Bitset.t array) Hashtbl.t;
}

(* --- canonical linearizations ------------------------------------- *)

(* Direct predecessors of [e] within a fixed event set: the previous
   event on the same process, and the corresponding send if [e] is a
   receive. All other causal ordering is their transitive closure. *)
let is_direct_pred ~of_:e c =
  (Pid.equal c.Event.pid e.Event.pid && c.Event.lseq = e.Event.lseq - 1)
  ||
  match e.Event.kind with
  | Event.Receive m -> (
      match c.Event.kind with Event.Send m' -> Msg.equal m m' | _ -> false)
  | Event.Send _ | Event.Internal _ -> false

(* Greedy least linearization: repeatedly emit the Event.compare-least
   event whose direct predecessors have all been emitted. For a valid
   computation this is exactly the lexicographically least interleaving
   of its [\[D\]]-class. *)
let canon_trace z =
  let rec go remaining acc =
    match remaining with
    | [] -> Trace.of_list (List.rev acc)
    | _ ->
        let ready =
          List.filter
            (fun e ->
              not
                (List.exists
                   (fun c -> (not (Event.equal c e)) && is_direct_pred ~of_:e c)
                   remaining))
            remaining
        in
        let least =
          match ready with
          | [] -> invalid_arg "Universe.canon: cyclic or ill-formed trace"
          | e :: rest -> List.fold_left (fun m c -> if Event.compare c m < 0 then c else m) e rest
        in
        go (List.filter (fun e -> not (Event.equal e least)) remaining) (least :: acc)
  in
  go (Trace.to_list z) []

(* --- enumeration --------------------------------------------------- *)

(* One expansion path serves every mode and every reduction. A frontier
   node carries, besides its trace and the vector of per-process class
   ids of its projections, the expansion state its children inherit:

   - [en], the per-process enabled sets and the in-flight pool
     ({!Reduction.Enabled}): a child recomputes at most two processes'
     enabled sets instead of rescanning the whole trace;
   - [canon], the incremental canonicity context ({!Reduction.Canon}),
     in [`Canonical] mode without symmetry — the only mode that filters
     extensions by canonicity;
   - [orbit], under symmetry, the renamed projection vector of every
     group element's action on the node, identity first, so a child's
     class key and orbit key are maintained by consing one renamed
     event — no trace is ever re-traversed or permuted wholesale.

   A child's class-id vector differs from its parent's in exactly one
   slot (the extending event's process), so maintaining it is O(n).
   Stored computations keep only the trace and the class ids: expansion
   state lives on the frontier alone, and children at the depth bound
   never get any. *)
type node = {
  z : Trace.t;
  ids : int array;
  en : Reduction.Enabled.ctx;
  canon : Reduction.Canon.ctx option;
  orbit : Symmetry.key array; (* [||] without symmetry *)
}

exception Out_of_budget of trunc_reason

let enumerate ?(mode = `Canonical) ?(budget = no_budget)
    ?(reduce = Reduction.none) spec ~depth =
  if depth < 0 then invalid_arg "Universe.enumerate: negative depth";
  if mode = `Full && not (Reduction.is_none reduce) then
    invalid_arg "Universe.enumerate: reductions require `Canonical mode";
  let group = Reduction.symmetry reduce in
  Hpl_obs.span "enumerate"
    ~args:(fun () ->
      [
        ("depth", string_of_int depth);
        ("mode", match mode with `Full -> "full" | `Canonical -> "canonical");
        ("reduce", Reduction.label reduce);
      ])
  @@ fun () ->
  let started = Sys.time () in
  let check_time () =
    match budget.max_seconds with
    | Some limit when Sys.time () -. started > limit ->
        Hpl_obs.instant "enumerate.budget"
          ~args:[ ("reason", "max_seconds") ];
        raise (Out_of_budget (Max_seconds limit))
    | _ -> ()
  in
  let n = Spec.n spec in
  let step_tbls = Array.init n (fun _ -> StepTbl.create 64) in
  let next_ids = Array.make n 1 in
  (* class id 0 is the empty projection; every distinct one-event
     extension of an interned projection gets the next id on first
     sight, in discovery order — the same first-occurrence order the
     old comps scan produced. *)
  let intern pi parent_id e =
    let key = (parent_id, e) in
    match StepTbl.find_opt step_tbls.(pi) key with
    | Some id -> id
    | None ->
        let id = next_ids.(pi) in
        next_ids.(pi) <- id + 1;
        StepTbl.add step_tbls.(pi) key id;
        id
  in
  (* under symmetry the canonicity filter is unsound — a stored orbit
     representative can reach a fresh orbit only through a non-canonical
     interleaving — so sym mode keeps every extension and dedups by
     orbit key instead *)
  let canonical = mode = `Canonical && group = None in
  (* ample-set restriction: only with por, only when the static
     independence relation certifies no depth-truncation — then every
     leaf is blocked and Reduction.restrict preserves all blocked
     classes (see reduction.ml) *)
  let indep_active =
    if canonical && Reduction.uses_por reduce then
      match Reduction.independence reduce with
      | Some ind when Reduction.Independence.applicable ind ~depth -> Some ind
      | _ -> None
    else None
  in
  let kept node =
    let cands = Reduction.Enabled.events node.en in
    let restricted =
      match indep_active with
      | Some ind -> Reduction.restrict ind node.en cands
      | None -> cands
    in
    match node.canon with
    | Some c -> (cands, List.filter (Reduction.Canon.keep c) restricted)
    | None -> (cands, restricted)
  in
  (* stored computations, newest first, with their class-id vectors;
     budget checks happen here, so max_states truncation keeps a
     deterministic prefix of the discovery order *)
  let acc = ref [] and count = ref 0 in
  let push z ids =
    (match budget.max_states with
    | Some k when !count >= k ->
        Hpl_obs.instant "enumerate.budget" ~args:[ ("reason", "max_states") ];
        raise (Out_of_budget (Max_states k))
    | _ -> ());
    acc := (z, ids) :: !acc;
    incr count
  in
  push Trace.empty (Array.make n 0);
  (* symmetry bookkeeping: [class_seen] memoizes the orbit decision per
     [D]-class (identity projection vector), [orbit_idx] maps each orbit
     key to its stored representative, [sigma_acc] records per stored
     node the σ attaining its key (newest first, like !acc) *)
  let class_seen = Symmetry.KeyTbl.create 256 in
  let orbit_idx = Symmetry.KeyTbl.create 256 in
  let sigma_acc = ref [] in
  let orbit_hits = ref 0 and ample_prunes = ref 0 in
  let perms =
    match group with
    | Some g -> Array.of_list (Symmetry.elements g)
    | None -> [||]
  in
  let extend_cand k cand e =
    let pe = if k = 0 then e else Symmetry.permute_event perms.(k) e in
    let j = Pid.to_int pe.Event.pid in
    let c = Array.copy cand in
    c.(j) <- pe :: c.(j);
    c
  in
  (* [None] when the child's [D]-class or its orbit is already stored;
     otherwise the child's renamed vectors and the index of the group
     element whose vector is the least — the orbit key *)
  let orbit_fate node e =
    let v = extend_cand 0 node.orbit.(0) e in
    if Symmetry.KeyTbl.mem class_seen v then None
    else begin
      Symmetry.KeyTbl.replace class_seen v ();
      let vs =
        Array.mapi (fun k pc -> if k = 0 then v else extend_cand k pc e) node.orbit
      in
      let best = ref 0 in
      for k = 1 to Array.length vs - 1 do
        if Symmetry.compare_key vs.(k) vs.(!best) < 0 then best := k
      done;
      if Symmetry.KeyTbl.mem orbit_idx vs.(!best) then None else Some (vs, !best)
    end
  in
  (match group with
  | Some _ ->
      let empty_key = Array.make n [] in
      Symmetry.KeyTbl.replace class_seen empty_key ();
      Symmetry.KeyTbl.replace orbit_idx empty_key 0;
      sigma_acc := [ perms.(0) ]
  | None -> ());
  (* per level: the merge phase filters each parent's enabled events and
     stores the admitted children in frontier order, then per-parent
     order; the frontier phase builds the expansion state of the
     children that are not at the depth bound *)
  let rec level frontier d =
    if d < depth && Array.length frontier > 0 then begin
      check_time ();
      let m = Array.length frontier in
      if !Hpl_obs.enabled then
        Hpl_obs.set_gauge "enumerate.frontier_size" (float_of_int m);
      let leaves = d + 1 = depth in
      let next = ref [] in
      let store node e orbit =
        let pi = Pid.to_int e.Event.pid in
        let ids = Array.copy node.ids in
        ids.(pi) <- intern pi node.ids.(pi) e;
        let z = Trace.snoc node.z e in
        push z ids;
        if not leaves then next := (node, e, z, ids, orbit) :: !next
      in
      Hpl_obs.span "enumerate.merge"
        ~args:(fun () ->
          [ ("depth", string_of_int d); ("frontier", string_of_int m) ])
        (fun () ->
          Array.iter
            (fun node ->
              check_time ();
              let cands, kept = kept node in
              if !Hpl_obs.enabled then
                ample_prunes :=
                  !ample_prunes + List.length cands - List.length kept;
              List.iter
                (fun e ->
                  match group with
                  | None -> store node e [||]
                  | Some _ -> (
                      match orbit_fate node e with
                      | None -> incr orbit_hits
                      | Some (vs, best) ->
                          (* store may raise on budget: register the
                             orbit entry only once the node is stored *)
                          store node e vs;
                          Symmetry.KeyTbl.replace orbit_idx vs.(best)
                            (!count - 1);
                          sigma_acc := perms.(best) :: !sigma_acc))
                kept)
            frontier);
      if not leaves then begin
        let frontier =
          Hpl_obs.span "enumerate.frontier"
            ~args:(fun () -> [ ("depth", string_of_int (d + 1)) ])
            (fun () ->
              Array.of_list
                (List.rev_map
                   (fun (p, e, z, ids, orbit) ->
                     {
                       z;
                       ids;
                       en = Reduction.Enabled.step spec p.en e;
                       canon = Option.map (fun c -> Reduction.Canon.step c e) p.canon;
                       orbit;
                     })
                   !next))
        in
        level frontier (d + 1)
      end
    end
  in
  let root =
    {
      z = Trace.empty;
      ids = Array.make n 0;
      en = Reduction.Enabled.init spec;
      canon = (if canonical then Some (Reduction.Canon.empty ~n) else None);
      orbit = Array.make (Array.length perms) (Array.make n []);
    }
  in
  let status =
    match level [| root |] 0 with
    | () -> Complete
    | exception Out_of_budget reason -> Truncated reason
  in
  if !Hpl_obs.enabled then begin
    Hpl_obs.count "enumerate.states" !count;
    let classes = ref 0 in
    Array.iter (fun next -> classes := !classes + next - 1) next_ids;
    Hpl_obs.count "enumerate.proj_classes" !classes;
    if not (Reduction.is_none reduce) then begin
      Hpl_obs.count "reduce.orbit_hits" !orbit_hits;
      Hpl_obs.count "reduce.ample_prunes" !ample_prunes
    end
  end;
  let comps, class_ids_by_pid, idx =
    (* the interning half: materialize the computations and build the
       O(1)-lookup trace index *)
    Hpl_obs.span "enumerate.intern"
      ~args:(fun () -> [ ("states", string_of_int !count) ])
    @@ fun () ->
    let comps = Array.make !count Trace.empty in
    let class_ids_by_pid = Array.init n (fun _ -> Array.make !count 0) in
    (* [!acc] holds nodes in reverse discovery order *)
    List.iteri
      (fun k (z, ids) ->
        let i = !count - 1 - k in
        comps.(i) <- z;
        for pi = 0 to n - 1 do
          class_ids_by_pid.(pi).(i) <- ids.(pi)
        done)
      !acc;
    let idx = TraceTbl.create (2 * !count) in
    Array.iteri (fun i z -> TraceTbl.replace idx z i) comps;
    (comps, class_ids_by_pid, idx)
  in
  let rep_sigma =
    match group with
    | None -> None
    | Some _ ->
        let a = Array.make !count [||] in
        List.iteri (fun k s -> a.(!count - 1 - k) <- s) !sigma_acc;
        Some a
  in
  {
    spec;
    mode;
    depth;
    status;
    reduce;
    comps;
    idx;
    class_ids_by_pid;
    orbit_idx = (match group with None -> None | Some _ -> Some orbit_idx);
    rep_sigma;
    pset_ids_memo = Hashtbl.create 16;
    classes_memo = Hashtbl.create 16;
  }

let spec u = u.spec
let mode u = u.mode
let depth u = u.depth
let status u = u.status
let reduction u = u.reduce
let symmetry u = Reduction.symmetry u.reduce
let size u = Array.length u.comps
let comp u i = u.comps.(i)

let sample u ~choose =
  let k = Array.length u.comps in
  if k = 0 then invalid_arg "Universe.sample: empty universe";
  let i = choose k in
  if i < 0 || i >= k then
    invalid_arg "Universe.sample: choose returned an out-of-range index";
  u.comps.(i)
let index u z =
  let r = TraceTbl.find_opt u.idx z in
  if !Hpl_obs.enabled then begin
    Hpl_obs.count "universe.lookups" 1;
    if r <> None then Hpl_obs.count "universe.lookup_hits" 1
  end;
  r
let canon _u z = canon_trace z

let find u z =
  match (symmetry u, u.mode) with
  | Some g, _ -> (
      (* the stored representative of z's orbit — reps are not
         lexicographically canonical, so the orbit index is the only
         sound lookup *)
      match u.orbit_idx with
      | Some tbl -> Symmetry.KeyTbl.find_opt tbl (Symmetry.orbit_key g z)
      | None -> None)
  | None, `Full -> index u z
  | None, `Canonical -> (
      match index u z with Some i -> Some i | None -> index u (canon_trace z))

let find_orbit u z =
  match symmetry u with
  | None ->
      Option.map (fun i -> (i, Symmetry.identity (Spec.n u.spec))) (find u z)
  | Some g -> (
      let key, s1 = Symmetry.orbit_key_witness g z in
      match u.orbit_idx with
      | None -> None
      | Some tbl ->
          Option.map
            (fun i ->
              let s0 =
                match u.rep_sigma with Some a -> a.(i) | None -> assert false
              in
              (i, Symmetry.compose (Symmetry.inverse s1) s0))
            (Symmetry.KeyTbl.find_opt tbl key))

let find_exn u z = match find u z with Some i -> i | None -> raise Not_found
let iter f u = Array.iteri f u.comps

let fold f u init =
  let acc = ref init in
  Array.iteri (fun i z -> acc := f i z !acc) u.comps;
  !acc

let class_ids u p = u.class_ids_by_pid.(Pid.to_int p)
let pset_key ps = List.map Pid.to_int (Pset.to_list ps)

let pset_class_ids u ps =
  let key = pset_key ps in
  match Hashtbl.find_opt u.pset_ids_memo key with
  | Some ids -> ids
  | None ->
      let n = size u in
      let ids =
        if Pset.is_empty ps then Array.make n 0
        else begin
          (* combine per-process class ids into fresh ids *)
          let tbl : (int list, int) Hashtbl.t = Hashtbl.create (2 * n) in
          let next = ref 0 in
          Array.init n (fun i ->
              let combined =
                List.map (fun p -> (class_ids u p).(i)) (Pset.to_list ps)
              in
              match Hashtbl.find_opt tbl combined with
              | Some id -> id
              | None ->
                  let id = !next in
                  incr next;
                  Hashtbl.add tbl combined id;
                  id)
        end
      in
      Hashtbl.add u.pset_ids_memo key ids;
      ids

let classes u ps =
  let key = pset_key ps in
  match Hashtbl.find_opt u.classes_memo key with
  | Some cs -> cs
  | None ->
      let ids = pset_class_ids u ps in
      let n = size u in
      let nclasses = Array.fold_left (fun m id -> max m (id + 1)) 0 ids in
      let cs = Array.init nclasses (fun _ -> Bitset.create n) in
      Array.iteri (fun i id -> Bitset.add cs.(id) i) ids;
      Hashtbl.add u.classes_memo key cs;
      cs

let class_members u ps i =
  let ids = pset_class_ids u ps in
  (classes u ps).(ids.(i))

let prefixes_of u i =
  let z = comp u i in
  let rec go prefix events acc =
    let acc =
      match find u prefix with Some j -> j :: acc | None -> acc
    in
    match events with
    | [] -> acc
    | e :: rest -> go (Trace.snoc prefix e) rest acc
  in
  List.rev (go Trace.empty (Trace.to_list z) [])

(* --- snapshot body ---------------------------------------------------

   A universe is a prefix-closed BFS in discovery order: [comps.(0)] is
   the empty trace and every other computation extends an earlier one by
   a single event. The body therefore stores, per computation, the index
   of its parent prefix plus one interned event — the same incremental
   representation the enumerator builds — rather than whole traces.
   Payload strings and internal tags go through a first-occurrence
   string table. Class ids are not stored at all: replaying the events
   through the same hash-consed trie in the same discovery order
   reproduces them bit-identically.

   The encoding is body-only. Framing (magic, format version, cache key,
   checksum) belongs to the snapshot container in [Hpl_serve.Snapshot];
   this layer only promises that any byte string either round-trips to a
   structurally valid universe of the given spec or yields [Error]. *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_i32 b v =
  if v < 0 || v > 0x3fffffff then
    invalid_arg "Universe.serialize: integer out of range";
  add_u8 b v;
  add_u8 b (v lsr 8);
  add_u8 b (v lsr 16);
  add_u8 b (v lsr 24)

let add_i64 b (v : int64) =
  for k = 0 to 7 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * k)))
  done

let add_str b s =
  add_i32 b (String.length s);
  Buffer.add_string b s

let serialize u =
  if Option.is_some (Reduction.symmetry u.reduce) then
    Error
      "symmetry-reduced universes have no snapshot form (orbit tables \
       are not serialized); cache them in memory only"
  else begin
    let b = Buffer.create 4096 in
    add_u8 b (match u.mode with `Full -> 0 | `Canonical -> 1);
    add_i32 b u.depth;
    (match u.status with
    | Complete -> add_u8 b 0
    | Truncated (Max_states k) ->
        add_u8 b 1;
        add_i32 b k
    | Truncated (Max_seconds s) ->
        add_u8 b 2;
        add_i64 b (Int64.bits_of_float s));
    add_u8 b (if Reduction.uses_por u.reduce then 1 else 0);
    let n = Spec.n u.spec in
    add_i32 b n;
    let count = Array.length u.comps in
    (* events into a side buffer so the string table can precede them *)
    let strings = Hashtbl.create 64 in
    let str_order = ref [] and nstr = ref 0 in
    let str_id s =
      match Hashtbl.find_opt strings s with
      | Some i -> i
      | None ->
          let i = !nstr in
          incr nstr;
          Hashtbl.add strings s i;
          str_order := s :: !str_order;
          i
    in
    let eb = Buffer.create 4096 in
    for i = 1 to count - 1 do
      let events = Trace.to_list u.comps.(i) in
      let rec split acc = function
        | [] -> invalid_arg "Universe.serialize: empty non-root computation"
        | [ e ] -> (List.rev acc, e)
        | e :: rest -> split (e :: acc) rest
      in
      let init, e = split [] events in
      let parent =
        match TraceTbl.find_opt u.idx (Trace.of_list init) with
        | Some j when j < i -> j
        | _ -> invalid_arg "Universe.serialize: universe is not prefix-closed"
      in
      add_i32 eb parent;
      add_i32 eb (Pid.to_int e.Event.pid);
      add_i32 eb e.Event.lseq;
      match e.Event.kind with
      | Event.Internal tag ->
          add_u8 eb 0;
          add_i32 eb (str_id tag)
      | Event.Send m ->
          add_u8 eb 1;
          add_i32 eb (Pid.to_int m.Msg.dst);
          add_i32 eb m.Msg.seq;
          add_i32 eb (str_id m.Msg.payload)
      | Event.Receive m ->
          add_u8 eb 2;
          add_i32 eb (Pid.to_int m.Msg.src);
          add_i32 eb m.Msg.seq;
          add_i32 eb (str_id m.Msg.payload)
    done;
    add_i32 b !nstr;
    List.iter (add_str b) (List.rev !str_order);
    add_i32 b count;
    Buffer.add_buffer b eb;
    Ok (Buffer.contents b)
  end

exception Corrupt of string

let deserialize spec blob =
  let len = String.length blob in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
  let u8 () =
    if !pos >= len then fail "truncated body";
    let v = Char.code blob.[!pos] in
    incr pos;
    v
  in
  let i32 () =
    let a = u8 () in
    let b = u8 () in
    let c = u8 () in
    let d = u8 () in
    let v = a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24) in
    if v < 0 || v > 0x3fffffff then fail "integer out of range";
    v
  in
  let i64 () =
    let v = ref 0L in
    for k = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 ())) (8 * k))
    done;
    !v
  in
  let str () =
    let k = i32 () in
    if !pos + k > len then fail "truncated string";
    let s = String.sub blob !pos k in
    pos := !pos + k;
    s
  in
  try
    let mode =
      match u8 () with 0 -> `Full | 1 -> `Canonical | m -> fail "bad mode %d" m
    in
    let depth = i32 () in
    let status =
      match u8 () with
      | 0 -> Complete
      | 1 -> Truncated (Max_states (i32 ()))
      | 2 ->
          let s = Int64.float_of_bits (i64 ()) in
          if not (s > 0.0 && Float.is_finite s) then fail "bad time budget";
          Truncated (Max_seconds s)
      | t -> fail "bad status tag %d" t
    in
    let reduce =
      match u8 () with 0 -> Reduction.none | 1 -> Reduction.por | t -> fail "bad reduce tag %d" t
    in
    if mode = `Full && not (Reduction.is_none reduce) then
      fail "full mode cannot carry a reduction";
    let n = i32 () in
    if n <> Spec.n spec then
      fail "process count mismatch (snapshot has %d, spec has %d)" n
        (Spec.n spec);
    let nstr = i32 () in
    if nstr > len then fail "oversized string table";
    let strings = Array.init nstr (fun _ -> str ()) in
    let getstr i = if i >= nstr then fail "dangling string reference" else strings.(i) in
    let count = i32 () in
    if count < 1 || count > len then fail "implausible computation count";
    let comps = Array.make count Trace.empty in
    let class_ids_by_pid = Array.init n (fun _ -> Array.make count 0) in
    let step_tbls = Array.init n (fun _ -> StepTbl.create 64) in
    let next_ids = Array.make n 1 in
    let intern pi parent_id e =
      let key = (parent_id, e) in
      match StepTbl.find_opt step_tbls.(pi) key with
      | Some id -> id
      | None ->
          let id = next_ids.(pi) in
          next_ids.(pi) <- id + 1;
          StepTbl.add step_tbls.(pi) key id;
          id
    in
    for i = 1 to count - 1 do
      let parent = i32 () in
      if parent >= i then fail "parent index %d not before child %d" parent i;
      let pi = i32 () in
      if pi >= n then fail "pid %d out of range" pi;
      let pid = Pid.of_int pi in
      let lseq = i32 () in
      let pz = comps.(parent) in
      (* lseq is derivable from the parent: reject inconsistent bodies
         rather than building traces that violate Trace.well_formed *)
      if lseq <> Trace.local_length pz pid then
        fail "inconsistent local sequence number at computation %d" i;
      let e =
        match u8 () with
        | 0 -> Event.internal ~pid ~lseq (getstr (i32 ()))
        | 1 ->
            let dst = i32 () in
            if dst >= n then fail "destination %d out of range" dst;
            let seq = i32 () in
            if seq <> Trace.send_count pz pid then
              fail "inconsistent send sequence number at computation %d" i;
            let payload = getstr (i32 ()) in
            Event.send ~pid ~lseq
              (Msg.make ~src:pid ~dst:(Pid.of_int dst) ~seq ~payload)
        | 2 ->
            let src = i32 () in
            if src >= n then fail "source %d out of range" src;
            let seq = i32 () in
            let payload = getstr (i32 ()) in
            let m = Msg.make ~src:(Pid.of_int src) ~dst:pid ~seq ~payload in
            if not (List.exists (Msg.equal m) (Trace.in_flight pz)) then
              fail "receive of a message not in flight at computation %d" i;
            Event.receive ~pid ~lseq m
        | t -> fail "bad event kind %d" t
      in
      comps.(i) <- Trace.snoc pz e;
      for q = 0 to n - 1 do
        class_ids_by_pid.(q).(i) <- class_ids_by_pid.(q).(parent)
      done;
      class_ids_by_pid.(pi).(i) <- intern pi class_ids_by_pid.(pi).(parent) e
    done;
    if !pos <> len then fail "%d trailing bytes" (len - !pos);
    (* spot-check against the spec the caller claims this snapshot is
       for: the deepest stored computation must be one of its
       computations (catches key collisions and spec drift) *)
    if count > 1 && not (Spec.valid spec comps.(count - 1)) then
      fail "snapshot is not a universe of the given spec";
    let idx = TraceTbl.create (2 * count) in
    Array.iteri (fun i z -> TraceTbl.replace idx z i) comps;
    Ok
      {
        spec;
        mode;
        depth;
        status;
        reduce;
        comps;
        idx;
        class_ids_by_pid;
        orbit_idx = None;
        rep_sigma = None;
        pset_ids_memo = Hashtbl.create 16;
        classes_memo = Hashtbl.create 16;
      }
  with Corrupt m -> Error m

let pp_stats fmt u =
  Format.fprintf fmt "universe: %d computations, depth %d, mode %s%s, %d processes%s"
    (size u) u.depth
    (match u.mode with `Full -> "full" | `Canonical -> "canonical")
    (if Reduction.is_none u.reduce then ""
     else Printf.sprintf ", reduce %s" (Reduction.label u.reduce))
    (Spec.n u.spec)
    (match u.status with
    | Complete -> ""
    | Truncated r -> Printf.sprintf " [TRUNCATED: %s]" (reason_to_string r))
