(* [P knows b] is a union of [P]-classes (§4.2): mark every class with
   a member outside [ext], then keep the members of the unmarked ones —
   O(size) time and one byte per class, no per-class bitsets *)
let knows_ext u ps ext =
  Hpl_obs.span "knowledge.knows_ext"
    ~args:(fun () -> [ ("pset", Pset.to_string ps) ])
  @@ fun () ->
  let ids = Universe.pset_class_ids u ps in
  let size = Array.length ids in
  if Bitset.length ext <> size then invalid_arg "Bitset: domain mismatch";
  Hpl_obs.count "knowledge.classes_scanned" size;
  let nclasses = 1 + Array.fold_left Int.max (-1) ids in
  let outside = Bytes.make nclasses '\000' in
  Bitset.iter
    (fun i -> Bytes.set outside ids.(i) '\001')
    (Bitset.complement ext);
  Bitset.of_pred size (fun i -> Bytes.get outside ids.(i) = '\000')

let knows_ext_naive u ps ext =
  let size = Universe.size u in
  Bitset.of_pred size (fun i ->
      let x = Universe.comp u i in
      let ok = ref true in
      Universe.iter
        (fun j y ->
          if Isomorphism.iso x y ps && not (Bitset.mem ext j) then ok := false)
        u;
      !ok)

(* -- symmetry-aware evaluation ----------------------------------------

   On a symmetry-reduced universe (DESIGN.md §10) the stored
   computations are orbit representatives, but the paper's quantifier
   "for all y: x [P] y : b at y" still ranges over the full computation
   set — i.e. over every permuted image π·(comp j), π in the group.
   Bucketing the verdict of [b] over all (j, π) by the [P]-projection
   of π·(comp j) answers, per bucket, whether every member of that
   [P]-class satisfies [b]; a representative knows [b] iff the bucket
   of its own (identity) projection is all-true. [b] is always
   evaluated at concrete computations, so this is exact for arbitrary
   — even asymmetric — predicates. *)

let knows_sym u g ps b =
  let size = Universe.size u in
  let perms = Array.of_list (Symmetry.elements g) in
  let n = Symmetry.degree g in
  let sel =
    Array.of_list (List.rev (Pset.fold (fun p acc -> Pid.to_int p :: acc) ps []))
  in
  Hpl_obs.count "knowledge.orbit_expansions" (size * Array.length perms);
  let all_true : bool Symmetry.KeyTbl.t = Symmetry.KeyTbl.create (4 * size) in
  let id_keys = Array.make size ([||] : Symmetry.key) in
  for i = 0 to size - 1 do
    let z = Universe.comp u i in
    Array.iteri
      (fun k pi ->
        let y = if k = 0 then z else Symmetry.permute_trace pi z in
        let pv = Symmetry.proj_vector n y in
        let key = Array.map (fun q -> pv.(q)) sel in
        if k = 0 then id_keys.(i) <- key;
        let v = Prop.eval b y in
        match Symmetry.KeyTbl.find_opt all_true key with
        | None -> Symmetry.KeyTbl.add all_true key v
        | Some true -> if not v then Symmetry.KeyTbl.replace all_true key false
        | Some false -> ())
      perms
  done;
  Bitset.of_pred size (fun i -> Symmetry.KeyTbl.find all_true id_keys.(i))

let knows_prop_exts u b =
  match Universe.symmetry u with
  | Some g when not (Symmetry.is_trivial g) ->
      fun ps ->
        Hpl_obs.span "knowledge.knows_sym"
          ~args:(fun () -> [ ("pset", Pset.to_string ps) ])
        @@ fun () -> knows_sym u g ps b
  | _ ->
      let ext = Prop.extent u b in
      fun ps -> knows_ext u ps ext

let knows_prop_ext u ps b = knows_prop_exts u b ps

let knows u ps b =
  let ext = knows_prop_ext u ps b in
  Prop.of_extent u
    (Format.asprintf "%a knows %s" Pset.pp ps (Prop.name b))
    ext

let knows_p u p b = knows u (Pset.singleton p) b

let nested u psets b = List.fold_right (fun ps acc -> knows u ps acc) psets b

let holds_at _u b x = Prop.eval b x

let sure u ps b =
  let kb = Prop.extent u (knows u ps b) in
  let knb = Prop.extent u (knows u ps (Prop.not_ b)) in
  Prop.of_extent u
    (Format.asprintf "%a sure %s" Pset.pp ps (Prop.name b))
    (Bitset.union kb knb)

let unsure u ps b = Prop.not_ (sure u ps b)

(* -- robustness under faults ----------------------------------------- *)

type verdict = Robust | Degraded | Destroyed | Vacuous

type provenance = Exact | Bound

type robustness = {
  verdict : verdict;
  provenance : provenance;
  baseline_hits : int;
  baseline_size : int;
  faulty_hits : int;
  faulty_size : int;
  baseline_status : Universe.status;
  faulty_status : Universe.status;
}

let verdict_to_string = function
  | Robust -> "robust"
  | Degraded -> "degraded"
  | Destroyed -> "destroyed"
  | Vacuous -> "vacuous"

let provenance_to_string = function Exact -> "exact" | Bound -> "bound"

let pp_robustness fmt r =
  Format.fprintf fmt "%s (fault-free: %d/%d%s; faulty: %d/%d%s)%s"
    (verdict_to_string r.verdict) r.baseline_hits r.baseline_size
    (match r.baseline_status with
    | Universe.Complete -> ""
    | Universe.Truncated _ -> " truncated")
    r.faulty_hits r.faulty_size
    (match r.faulty_status with
    | Universe.Complete -> ""
    | Universe.Truncated _ -> " truncated")
    (match r.provenance with
    | Exact -> ""
    | Bound -> "  [bound: truncated universe]")

let robust_under ?(mode = `Canonical) ?(budget = Universe.no_budget)
    ?faulty_depth ?(view = Fun.id) spec ~transform ~depth ps b =
  let u0 = Universe.enumerate ~mode ~budget spec ~depth in
  let faulty_depth = Option.value faulty_depth ~default:depth in
  let u1 = Universe.enumerate ~mode ~budget (transform spec) ~depth:faulty_depth in
  (* [b] is written against the fault-free system; [view] translates a
     faulty computation back to its fault-free observation first *)
  let b' = Prop.make (Prop.name b) (fun z -> Prop.eval b (view z)) in
  let hits u bb = Bitset.cardinal (knows_ext u ps (Prop.extent u bb)) in
  let baseline_hits = hits u0 b and faulty_hits = hits u1 b' in
  let baseline_size = Universe.size u0 and faulty_size = Universe.size u1 in
  let verdict =
    if baseline_hits = 0 then Vacuous
    else if faulty_hits = 0 then Destroyed
    else if
      (* compare prevalence as exact rationals: hits1/size1 vs hits0/size0 *)
      faulty_hits * baseline_size >= baseline_hits * faulty_size
    then Robust
    else Degraded
  in
  let provenance =
    match (Universe.status u0, Universe.status u1) with
    | Universe.Complete, Universe.Complete -> Exact
    | _ -> Bound
  in
  {
    verdict;
    provenance;
    baseline_hits;
    baseline_size;
    faulty_hits;
    faulty_size;
    baseline_status = Universe.status u0;
    faulty_status = Universe.status u1;
  }

module Laws = struct
  let ext_knows u ps b = knows_ext u ps (Prop.extent u b)

  let fact1_class_invariant u ps b =
    let k = ext_knows u ps b in
    let ids = Universe.pset_class_ids u ps in
    let ok = ref true in
    Universe.iter
      (fun i _ ->
        Universe.iter
          (fun j _ ->
            if ids.(i) = ids.(j) && Bitset.mem k i <> Bitset.mem k j then
              ok := false)
          u)
      u;
    !ok

  let fact3_monotone_union u p q b =
    Bitset.subset (ext_knows u p b) (ext_knows u (Pset.union p q) b)

  let fact4_veridical u ps b = Bitset.subset (ext_knows u ps b) (Prop.extent u b)

  let fact5_total u ps b =
    let k = ext_knows u ps b in
    let n = Universe.size u in
    Bitset.equal (Bitset.create_full n) (Bitset.union k (Bitset.complement k))

  let fact6_conjunction u ps b b' =
    Bitset.equal
      (Bitset.inter (ext_knows u ps b) (ext_knows u ps b'))
      (ext_knows u ps (Prop.and_ b b'))

  let fact7_disjunction u ps b b' =
    Bitset.subset
      (Bitset.union (ext_knows u ps b) (ext_knows u ps b'))
      (ext_knows u ps (Prop.or_ b b'))

  let fact8_consistency u ps b =
    Bitset.is_empty
      (Bitset.inter (ext_knows u ps (Prop.not_ b)) (ext_knows u ps b))

  let fact9_closure u ps b b' =
    let valid_implication =
      Bitset.subset (Prop.extent u b) (Prop.extent u b')
    in
    (not valid_implication)
    || Bitset.subset (ext_knows u ps b) (ext_knows u ps b')

  let fact10_positive_introspection u ps b =
    let k = ext_knows u ps b in
    Bitset.equal (knows_ext u ps k) k

  let fact11_negative_introspection u ps b =
    let nk = Bitset.complement (ext_knows u ps b) in
    Bitset.equal (knows_ext u ps nk) nk

  let fact12_constants u ps c =
    let k = ext_knows u ps (Prop.const c) in
    if c then Bitset.equal k (Bitset.create_full (Universe.size u))
    else Bitset.is_empty k
end
