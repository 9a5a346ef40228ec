(* Differential oracle for [Universe.enumerate].

   [reference] below is the rescanning expansion path: every state
   recomputes [Spec.enabled] from its trace, and every candidate
   rescans the trace for canonicity ([snoc_is_canonical]). It is slow
   and follows the definitions directly, so it serves as the oracle.
   The enumerator, which carries incremental enabled-set and
   canonicity contexts along its frontier, must produce the same
   computations in the same order, the same per-process and
   process-set class ids, the same orbit tables and the same
   [max_states] truncation — registry-wide, in both modes, under every
   reduction and under crash/drop/dup faults.

   Golden digests then pin a dozen universes, so that a change moving
   the enumerator and this oracle together is still caught. *)
open Hpl_core
open Hpl_protocols
open Hpl_analysis
module Query = Hpl_serve.Query

let () = Builtins.init ()

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* -- the reference enumerator -------------------------------------------- *)

let is_direct_pred ~of_:e c =
  (Pid.equal c.Event.pid e.Event.pid && c.Event.lseq = e.Event.lseq - 1)
  ||
  match (e.Event.kind, c.Event.kind) with
  | Event.Receive m, Event.Send m' -> Msg.equal m m'
  | _ -> false

(* [z] canonical, [e] enabled after [z]: [e] becomes available right
   after its last direct predecessor, and [(z;e)] is canonical iff no
   event placed from there on exceeds [e] *)
let snoc_is_canonical z e =
  let events = Trace.to_list z in
  let avail =
    List.fold_left (fun a (i, c) -> if is_direct_pred ~of_:e c then i + 1 else a)
      0 (List.mapi (fun i c -> (i, c)) events)
  in
  List.for_all Fun.id (List.mapi (fun i c -> i < avail || Event.compare c e < 0) events)

type reference = { comps : Trace.t array; truncated : bool }

exception Budget

let reference ?(mode = `Canonical) ?max_states ?(reduce = Reduction.none) spec
    ~depth =
  let n = Spec.n spec and group = Reduction.symmetry reduce in
  (* the singleton ample set of [Reduction.restrict] *)
  let restrict z cands =
    match (Reduction.independence reduce, cands) with
    | Some ind, (e :: _ :: _)
      when mode = `Canonical && group = None && Reduction.uses_por reduce
           && Reduction.Independence.applicable ind ~depth
           && Pid.to_int e.Event.pid < Reduction.Independence.n ind
           && Reduction.Independence.stable ind (Pid.to_int e.Event.pid)
           && List.length (Spec.enabled_on spec z e.Event.pid) = 1 ->
        [ e ]
    | _ -> cands
  in
  let classes = Symmetry.KeyTbl.create 64 and orbits = Symmetry.KeyTbl.create 64 in
  (* under symmetry a computation is stored iff its [D]-class and its
     orbit are both new *)
  let fresh z =
    match group with
    | None -> true
    | Some g ->
        let v = Symmetry.proj_vector n z in
        (not (Symmetry.KeyTbl.mem classes v))
        && begin
             Symmetry.KeyTbl.replace classes v ();
             let key = Symmetry.orbit_key g z in
             (not (Symmetry.KeyTbl.mem orbits key))
             && (Symmetry.KeyTbl.replace orbits key ();
                 true)
           end
  in
  let stored = ref [] and count = ref 0 in
  let push z =
    (match max_states with Some k when !count >= k -> raise Budget | _ -> ());
    stored := z :: !stored;
    incr count
  in
  ignore (fresh Trace.empty);
  push Trace.empty;
  let rec level frontier d =
    if d < depth then begin
      let next = ref [] in
      List.iter
        (fun z ->
          List.iter
            (fun e ->
              if mode = `Full || group <> None || snoc_is_canonical z e then
                let z' = Trace.snoc z e in
                if fresh z' then begin
                  push z';
                  next := z' :: !next
                end)
            (restrict z (Spec.enabled spec z)))
        frontier;
      level (List.rev !next) (d + 1)
    end
  in
  let truncated = match level [ Trace.empty ] 0 with () -> false | exception Budget -> true in
  { comps = Array.of_list (List.rev !stored); truncated }

(* -- agreement ------------------------------------------------------------ *)

module TraceTbl = Hashtbl.Make (struct
  type t = Trace.t

  let equal = Trace.equal
  let hash = Trace.hash
end)

(* class ids numbered by first occurrence, the enumerator's contract *)
let first_occurrence (views : Trace.t array) =
  let tbl = TraceTbl.create 64 in
  Array.map
    (fun v ->
      match TraceTbl.find_opt tbl v with
      | Some id -> id
      | None ->
          let id = TraceTbl.length tbl in
          TraceTbl.add tbl v id;
          id)
    views

let agree name u r =
  let spec = Universe.spec u in
  checki (name ^ ": size") (Array.length r.comps) (Universe.size u);
  checkb (name ^ ": truncation") r.truncated
    (match Universe.status u with
    | Universe.Complete -> false
    | Universe.Truncated (Universe.Max_states _) -> true
    | Universe.Truncated (Universe.Max_seconds _) -> Alcotest.fail "time budget");
  Array.iteri
    (fun i z ->
      if not (Trace.equal z (Universe.comp u i)) then
        Alcotest.failf "%s: comp %d is %s, oracle has %s" name i
          (Trace.to_string (Universe.comp u i)) (Trace.to_string z))
    r.comps;
  let per_pid =
    List.map
      (fun p ->
        let ids = first_occurrence (Array.map (fun z -> Trace.of_list (Trace.proj z p)) r.comps) in
        check Alcotest.(array int)
          (Printf.sprintf "%s: class ids p%d" name (Pid.to_int p))
          ids (Universe.class_ids u p);
        ids)
      (Spec.pids spec)
  in
  (* [P]-classes: equal projections on every member of P *)
  let combined = Hashtbl.create 64 in
  let pset_ids =
    Array.init (Array.length r.comps) (fun i ->
        let key = List.map (fun ids -> ids.(i)) per_pid in
        match Hashtbl.find_opt combined key with
        | Some id -> id
        | None ->
            let id = Hashtbl.length combined in
            Hashtbl.add combined key id;
            id)
  in
  check Alcotest.(array int) (name ^ ": pset class ids") pset_ids
    (Universe.pset_class_ids u (Spec.all spec));
  match Universe.symmetry u with
  | None -> ()
  | Some g ->
      (* the orbit table: every stored representative resolves to itself
         with the identity — find_orbit composes the stored σ with the
         inverse of the σ [Symmetry.orbit_key_witness] finds, so this
         pins the stored σ — and every permuted image resolves to its
         representative *)
      Array.iteri
        (fun i z ->
          (match Universe.find_orbit u z with
          | Some (j, rho) when j = i && Symmetry.is_identity rho -> ()
          | Some (j, rho) ->
              Alcotest.failf "%s: rep %d resolves to (%d, %s)" name i j
                (Symmetry.to_string rho)
          | None -> Alcotest.failf "%s: rep %d not found" name i);
          List.iter
            (fun pi ->
              check Alcotest.(option int)
                (Printf.sprintf "%s: image %s of rep %d" name (Symmetry.to_string pi) i)
                (Some i)
                (Universe.find u (Symmetry.permute_trace pi z)))
            (Symmetry.elements g))
        r.comps

let differential ?(mode = `Canonical) ?max_states ?(reduce = Reduction.none) name
    spec ~depth =
  let budget = Universe.budget ?max_states () in
  let u = Universe.enumerate ~mode ~budget ~reduce spec ~depth in
  let r = reference ~mode ?max_states ~reduce spec ~depth in
  agree
    (Printf.sprintf "%s/%s/%s%s" name
       (match mode with `Full -> "full" | `Canonical -> "canonical")
       (Reduction.label reduce)
       (match max_states with Some k -> Printf.sprintf "/max%d" k | None -> ""))
    u r;
  u

(* -- registry-wide ------------------------------------------------------- *)

let registry () =
  List.map Protocol.default_instance (Protocol.Registry.list ())

(* every mode and reduction at the protocol's suggested depth; the full
   mode is capped, since ring's all-interleavings universe is the one
   large case *)
let test_registry_modes () =
  List.iter
    (fun inst ->
      let name = Protocol.instance_name inst in
      let spec = Protocol.spec_of inst and depth = Protocol.depth_of inst in
      let u0 = differential name spec ~depth in
      ignore (differential ~reduce:Reduction.por name spec ~depth);
      ignore (differential ~mode:`Full ~max_states:20_000 name spec ~depth);
      (match Protocol.symmetry_of inst with
      | Some g ->
          ignore (differential ~reduce:(Reduction.sym g) name spec ~depth);
          ignore (differential ~reduce:(Reduction.full g) name spec ~depth)
      | None -> ());
      (* truncation keeps a prefix of the discovery order *)
      List.iter
        (fun k ->
          if k < Universe.size u0 then begin
            ignore (differential ~max_states:k name spec ~depth);
            ignore (differential ~mode:`Full ~max_states:k name spec ~depth)
          end)
        [ 1; 2; 7; Universe.size u0 / 2 ])
    (registry ())

(* por with flow's static independence: at the suggested depth, and at
   the depth where the no-truncation certificate starts to apply, so the
   singleton ample set really fires *)
let test_registry_independence () =
  let fired = ref 0 in
  List.iter
    (fun inst ->
      match Option.bind (Dataflow.of_instance inst) Dataflow.independence with
      | None -> ()
      | Some ind ->
          let name = Protocol.instance_name inst in
          let spec = Protocol.spec_of inst in
          let reduce = Reduction.with_independence Reduction.por ind in
          let suggested = Protocol.depth_of inst in
          let certified = Reduction.Independence.total ind in
          List.iter
            (fun depth ->
              let u = differential ~reduce ~max_states:30_000 name spec ~depth in
              let u0 = Universe.enumerate ~budget:(Universe.budget ~max_states:30_000 ()) spec ~depth in
              if Universe.size u < Universe.size u0 then incr fired)
            (List.sort_uniq compare [ suggested; max suggested (min certified 9) ]))
    (registry ());
  checkb "the singleton ample set fired somewhere" true (!fired > 0)

(* crash, drop and dup scenarios, resolved exactly as the CLI resolves
   them; protocols whose channels reject a scenario are skipped *)
let test_registry_faults () =
  let ran = ref 0 in
  List.iter
    (fun inst ->
      let proto = Protocol.instance_name inst in
      List.iter
        (fun faults ->
          match Query.resolve ~proto ~faults () with
          | Error _ -> ()
          | Ok st ->
              incr ran;
              let name = proto ^ "+" ^ faults in
              let depth = min st.Query.depth 6 in
              ignore (differential ~max_states:5_000 name st.Query.spec ~depth);
              ignore
                (differential ~mode:`Full ~max_states:5_000 name st.Query.spec
                   ~depth))
        [ "crash-any:1"; "drop:*"; "dup:*" ])
    (registry ());
  checkb "fault scenarios ran" true (!ran > 30)

(* the incremental contexts themselves, state by state: along every
   canonical computation of every registry protocol, the carried enabled
   set is [Spec.enabled] and the carried canonicity test is
   [snoc_is_canonical] for every enabled event *)
let test_contexts_state_by_state () =
  List.iter
    (fun inst ->
      let name = Protocol.instance_name inst in
      let spec = Protocol.spec_of inst in
      let r = reference spec ~depth:(Protocol.depth_of inst) in
      Array.iter
        (fun z ->
          let en, canon =
            List.fold_left
              (fun (en, c) e ->
                (Reduction.Enabled.step spec en e, Reduction.Canon.step c e))
              (Reduction.Enabled.init spec, Reduction.Canon.empty ~n:(Spec.n spec))
              (Trace.to_list z)
          in
          let enabled = Spec.enabled spec z in
          checkb (name ^ ": enabled set") true
            (List.equal Event.equal enabled (Reduction.Enabled.events en));
          List.iter
            (fun e ->
              if Reduction.Canon.keep canon e <> snoc_is_canonical z e then
                Alcotest.failf "%s: canonicity of %s after %s" name
                  (Event.to_string e) (Trace.to_string z))
            enabled)
        r.comps)
    (registry ())

(* -- golden digests -------------------------------------------------------

   One digest per universe over everything a query can observe: the
   status, every computation in index order with its per-process and
   all-process class ids, and under symmetry the orbit resolution of a
   permuted image. Recorded from the rescanning enumerator and
   unchanged by the incremental one. *)

let digest u =
  let b = Buffer.create 4096 in
  let spec = Universe.spec u in
  Buffer.add_string b
    (match Universe.status u with
    | Universe.Complete -> "complete\n"
    | Universe.Truncated r -> Universe.reason_to_string r ^ "\n");
  let all = Universe.pset_class_ids u (Spec.all spec) in
  let last_perm =
    Option.map (fun g -> List.nth (Symmetry.elements g) (Symmetry.order g - 1))
      (Universe.symmetry u)
  in
  Universe.iter
    (fun i z ->
      Buffer.add_string b (Trace.to_string z);
      List.iter
        (fun p -> Buffer.add_string b (Printf.sprintf " %d" (Universe.class_ids u p).(i)))
        (Spec.pids spec);
      Buffer.add_string b (Printf.sprintf " / %d" all.(i));
      (match last_perm with
      | Some pi -> (
          match Universe.find_orbit u (Symmetry.permute_trace pi z) with
          | Some (j, rho) ->
              Buffer.add_string b (Printf.sprintf " @ %d %s" j (Symmetry.to_string rho))
          | None -> Buffer.add_string b " @ none")
      | None -> ());
      Buffer.add_char b '\n')
    u;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (protocol, depth, faults, mode, reduce, max_states), resolved like the
   CLI's enumerate (so por attaches flow's independence), with the
   expected size and digest *)
let goldens =
  [
    ("chatter:3", "6", None, `Canonical, "none", None, 1067,
      "921db74f391bef4aec411eeb0bf156b1" );
    ("chatter:3", "6", None, `Full, "none", None, 25087,
      "54af43c2d6c1d82a7c031ea31f0081ab" );
    ("ring:6", "8", None, `Canonical, "none", None, 4902,
      "fbcfcb82cd9f6eba2833240be92e4e88" );
    ("ring:6", "8", None, `Canonical, "sym", None, 826,
      "58b4f85d99fb773619d96f389e0eff68" );
    ("ring:6", "8", None, `Canonical, "full", None, 826,
      "58b4f85d99fb773619d96f389e0eff68" );
    ("star-flood:5", "6", None, `Canonical, "sym", None, 58,
      "307e0d0ab8142b02b2d279862292faa2" );
    ("mesh:4", "5", None, `Canonical, "none", None, 2674,
      "9f0a39e4de38343a5abd8819dc93ee90" );
    ("token-bus:5", "8", None, `Canonical, "none", None, 25,
      "ea361d6448ee1159694d22e47e811767" );
    ("quorum:5:2", "9", None, `Canonical, "por", None, 87,
      "cbce8b7bfaf45f7570c41de29b2b1f20" );
    ("ping-pong", "6", Some "drop:p0->p1", `Canonical, "none", None, 8,
      "c5dfd122f5bd481d34b61ed81d0074a3" );
    ("chatter:3", "6", Some "crash-any:1", `Canonical, "none", None, 1385,
      "5ecfd862cd7b47934de2a2489f0097dd" );
    ("chatter:2", "5", Some "dup:*", `Full, "none", None, 1405,
      "3c82c4f9cc0fc106b4bd5c8a754ae3c4" );
    ("chatter:3", "8", None, `Canonical, "none", Some "500", 500,
      "d7c5fdfa33ccc2ff62c7f5602c64d909" );
    ("star-flood:6", "9", None, `Canonical, "por", None, 46281,
      "30decfd175c77c3bc97d5a64dd4eb777" );
  ]

let test_goldens () =
  List.iter
    (fun (proto, depth, faults, mode, reduce, max_states, size, want) ->
      let name =
        String.concat " "
          ([ proto; "-d"; depth ]
          @ (match faults with Some f -> [ "--faults"; f ] | None -> [])
          @ [ (match mode with `Full -> "full" | `Canonical -> "canonical"); reduce ]
          @ match max_states with Some k -> [ "max"; k ] | None -> [])
      in
      let st =
        match Query.resolve ~proto ~depth ?faults ?max_states () with
        | Ok st -> st
        | Error e -> Alcotest.failf "%s: %s" name e
      in
      let reduce =
        match Query.resolve_reduce st ~mode ~indep:true reduce with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s: %s" name e
      in
      let u = Query.enumerate ~mode st ~reduce in
      checki (name ^ ": size") size (Universe.size u);
      check Alcotest.string (name ^ ": digest") want (digest u))
    goldens

let suite =
  [
    ("registry: every mode and reduction", `Quick, test_registry_modes);
    ("registry: por with static independence", `Quick, test_registry_independence);
    ("registry: crash, drop and dup faults", `Quick, test_registry_faults);
    ("incremental contexts, state by state", `Quick, test_contexts_state_by_state);
    ("golden universe digests", `Quick, test_goldens);
  ]
