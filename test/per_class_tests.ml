(* Per-class evaluation (DESIGN.md §9): Prop.extent evaluates a local
   leaf once per [p]-class and Knowledge.knows_ext marks classes instead
   of building one bitset per class. Both are checked here against
   their references — per-computation evaluation, and the per-class
   bitset algorithm knows_ext used before — over every registry
   protocol and corpus spec, every atom, and every kind of universe a
   query can meet: canonical, full, symmetry-reduced, por, each declared
   fault scenario, truncated, and snapshot round-tripped. *)
open Hpl_core
open Hpl_protocols
open Hpl_serve

let () = Builtins.init ()

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let spec_path = Dsl_tests.spec_path

(* -- references ------------------------------------------------------------ *)

let oracle u b =
  Bitset.of_pred (Universe.size u) (fun i -> Prop.eval b (Universe.comp u i))

(* knows_ext as it was: one bitset per class, a class kept when it lies
   inside the extent *)
let knows_ext_per_class_bitsets u ps ext =
  let out = Bitset.create (Universe.size u) in
  Array.iter
    (fun cls -> if Bitset.subset cls ext then Bitset.union_into out cls)
    (Universe.classes u ps);
  out

(* pset_class_ids as it was for a singleton: fresh ids in first-occurrence
   order *)
let renumbered ids =
  let tbl = Hashtbl.create 64 in
  Array.map
    (fun c ->
      match Hashtbl.find_opt tbl c with
      | Some id -> id
      | None ->
          let id = Hashtbl.length tbl in
          Hashtbl.add tbl c id;
          id)
    ids

let evals f =
  Hpl_obs.enable ();
  Hpl_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Hpl_obs.disable ();
      Hpl_obs.reset ())
    (fun () ->
      let r = f () in
      (r, Hpl_obs.counter "prop.extent.evals"))

let opaque b = Prop.make (Prop.name b) (Prop.eval b)

(* -- the differential ------------------------------------------------------ *)

let same_set what a b =
  if not (Bitset.equal a b) then
    Alcotest.failf "%s:@ %a@ vs %a" what Bitset.pp a Bitset.pp b

(* Every atom of [atoms] on [u]: structured extent against the oracle,
   knows_ext against the per-class-bitset reference for every
   singleton, and one mixed local/opaque formula per atom. *)
let assert_universe what u atoms =
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.failf "%s: %s" what m) fmt in
  let n = Spec.n (Universe.spec u) in
  let pids = List.init n Pid.of_int in
  List.iter
    (fun p ->
      let ids = Universe.class_ids u p in
      if Universe.pset_class_ids u (Pset.singleton p) != ids then
        fail "pset_class_ids {%s} is not class_ids" (Pid.to_string p);
      if renumbered ids <> ids then
        fail "class ids of %s not in first-occurrence order" (Pid.to_string p))
    pids;
  let others = List.map opaque atoms in
  List.iter2
    (fun b b_opaque ->
      let what = Printf.sprintf "%s, atom %s" what (Prop.name b) in
      let ext = Prop.extent u b in
      same_set (what ^ ": extent") ext (oracle u b);
      List.iter
        (fun p ->
          let ps = Pset.singleton p in
          same_set
            (Printf.sprintf "%s: knows_ext {%s}" what (Pid.to_string p))
            (Knowledge.knows_ext u ps ext)
            (knows_ext_per_class_bitsets u ps ext))
        pids;
      (* structured and opaque operands mixed at every combinator *)
      let c = List.hd (List.rev others) in
      let mixed =
        Prop.conj
          [
            Prop.implies b_opaque (Prop.or_ b c);
            Prop.iff (Prop.not_ b) (Prop.not_ b_opaque);
            Prop.disj [ Prop.ff; Prop.and_ b Prop.tt; Prop.not_ b ];
          ]
      in
      same_set (what ^ ": mixed formula") (Prop.extent u mixed) (oracle u mixed);
      (* a knows predicate is a stored extent, copied on its universe *)
      let k = Knowledge.knows u (Pset.singleton (List.hd pids)) b in
      same_set (what ^ ": knows extent") (Prop.extent u k) (oracle u k);
      let xor = Prop.not_ (Prop.iff b c) in
      same_set (what ^ ": xor") (Prop.extent u xor) (oracle u xor))
    atoms others

let setup ?depth ?faults ?max_states ?file ?proto () =
  get (Query.resolve ?proto ?file ?depth ?faults ?max_states ())

let universe ?(mode = `Canonical) ?(reduce = "none") st =
  match Query.resolve_reduce st ~mode reduce with
  | Ok r -> Some (Query.enumerate ~mode st ~reduce:r)
  | Error _ -> None

let round_trip st u =
  match Universe.serialize u with
  | Ok body -> Some (get (Universe.deserialize st.Query.spec body))
  | Error _ -> None

(* every kind of universe of one source *)
let check_source ~label ?file ?proto ~depth () =
  let max_states = "1500" in
  let st = setup ?file ?proto ~depth ~max_states () in
  let atoms = List.map snd (Protocol.atoms_of st.Query.inst) in
  let run kind u =
    match u with
    | Some u ->
        assert_universe (Printf.sprintf "%s -d %s %s" label depth kind) u atoms
    | None -> ()
  in
  let canonical = universe st in
  run "canonical" canonical;
  run "full" (universe ~mode:`Full st);
  run "sym" (universe ~reduce:"sym" st);
  run "por" (universe ~reduce:"por" st);
  run "round-tripped" (Option.bind canonical (round_trip st));
  let small = setup ?file ?proto ~depth ~max_states:"40" () in
  run "truncated at 40" (universe small);
  List.iter
    (fun sc ->
      let st = setup ?file ?proto ~depth ~max_states ~faults:sc () in
      run ("--faults " ^ sc) (universe st))
    (Protocol.fault_scenarios (Protocol.proto st.Query.inst))

let test_registry () =
  List.iter
    (fun p ->
      let name = Protocol.name p in
      check_source ~label:name ~proto:name
        ~depth:(string_of_int (Protocol.suggested_depth p))
        ())
    (Protocol.Registry.list ());
  (* larger instances of the benchmark's protocols, deeper than their
     suggested depth *)
  List.iter
    (fun (proto, depth) -> check_source ~label:proto ~proto ~depth ())
    [ ("ring:5", "9"); ("mesh:4", "6"); ("star-flood:5", "8"); ("token-bus:4", "7") ]

let test_corpus () =
  List.iter
    (fun file ->
      let path = spec_path file in
      check_source ~label:file ~file:path ~depth:"6" ())
    [ "ping_pong.hpl"; "quorum.hpl"; "relay.hpl"; "ring.hpl" ]

(* -- evaluation counts ----------------------------------------------------- *)

let ring () =
  let st = setup ~proto:"ring:4" ~depth:"8" () in
  (st, Option.get (universe st))

let atom st name = Option.get (Protocol.atom_env st.Query.inst name)

(* a local leaf is called once per class; an opaque one once per
   computation; a stored extent not at all *)
let test_eval_counts () =
  let st, u = ring () in
  let p0_sent = atom st "p0_sent" in
  Alcotest.(check bool) "p0_sent is structured" true (Prop.structured p0_sent);
  let classes =
    Array.fold_left max 0 (Universe.class_ids u (Pid.of_int 0)) + 1
  in
  let ext, calls = evals (fun () -> Prop.extent u p0_sent) in
  Alcotest.(check int) "one call per p0-class" classes calls;
  let _, calls = evals (fun () -> Prop.extent u (opaque p0_sent)) in
  Alcotest.(check int) "one call per computation" (Universe.size u) calls;
  let k = Knowledge.knows u (Pset.singleton (Pid.of_int 1)) p0_sent in
  let kext, calls = evals (fun () -> Prop.extent u k) in
  Alcotest.(check int) "a stored extent is copied" 0 calls;
  same_set "knows extent" kext (oracle u k);
  same_set "atom extent" ext (oracle u p0_sent)

(* an extent remembered for another universe is looked up per
   computation, through that universe's [find] *)
let test_of_extent_elsewhere () =
  let st, u = ring () in
  let u2 = Option.get (round_trip st u) in
  let k = Knowledge.knows u (Pset.singleton (Pid.of_int 2)) (atom st "all_sent") in
  let ext2, calls = evals (fun () -> Prop.extent u2 k) in
  Alcotest.(check int) "per computation on another universe" (Universe.size u2)
    calls;
  same_set "of_extent elsewhere" ext2 (oracle u2 k);
  same_set "same answer as at home" ext2 (Prop.extent u k)

(* a leaf on a process the universe does not have reads an empty
   projection, per computation *)
let test_local_out_of_range () =
  let _, u = ring () in
  let b = Prop.local (Pid.of_int 9) "p9 idle" (fun h -> h = []) in
  let ext, calls = evals (fun () -> Prop.extent u b) in
  Alcotest.(check int) "fallback evaluates per computation" (Universe.size u) calls;
  Alcotest.(check int) "holds everywhere" (Universe.size u) (Bitset.cardinal ext)

(* the atoms named for porting are local leaves or conjunctions of them *)
let test_ported_atoms_structured () =
  List.iter
    (fun (proto, names) ->
      let st = setup ~proto () in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s is structured" proto name)
            true
            (Prop.structured (atom st name)))
        names)
    [
      ("ring", [ "all_sent"; "p0_sent" ]);
      ("mesh", [ "all_sent" ]);
      ("star-flood", [ "all_acked"; "p1_acked" ]);
      ("quorum", [ "decided"; "p1_voted" ]);
      ("chatter", [ "sent"; "idled" ]);
      ("ping-pong", [ "sent"; "received" ]);
      ("two-phase-commit", [ "committed"; "aborted" ]);
      ("token-ring", [ "holds0" ]);
    ];
  let st = setup ~file:(spec_path "ring.hpl") () in
  Alcotest.(check bool) "ring.hpl all_sent is structured" true
    (Prop.structured (atom st "all_sent"));
  Alcotest.(check bool) "Tracking.bit is structured" true
    (Prop.structured Tracking.bit)

let suite =
  [
    ("registry: extent and knows_ext vs references", `Slow, test_registry);
    ("corpus specs: extent and knows_ext vs references", `Quick, test_corpus);
    ("evaluation counts per leaf kind", `Quick, test_eval_counts);
    ("of_extent on another universe", `Quick, test_of_extent_elsewhere);
    ("local leaf outside the spec", `Quick, test_local_out_of_range);
    ("ported atoms are structured", `Quick, test_ported_atoms_structured);
  ]
