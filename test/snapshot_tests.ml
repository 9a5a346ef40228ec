(* The snapshot body (Universe.serialize/deserialize) on its own, below
   the container checksum: one hand-built body per decoder rule, each
   violating exactly that rule; golden digests that pin the layout; a
   registry-wide round-trip differential against enumeration; and the
   FNV-1a-64 vectors the container's checksum relies on. *)
open Hpl_core
open Hpl_protocols
open Hpl_serve

let () = Builtins.init ()
let check = Alcotest.check
let tstr = Alcotest.string

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let setup ?depth ?faults ?max_states proto =
  get (Query.resolve ~proto ?depth ?faults ?max_states ())

let universe ?(mode = `Canonical) ?(reduce = "none") ?(indep = false) st =
  let r = get (Query.resolve_reduce st ~mode ~indep reduce) in
  Query.enumerate ~mode st ~reduce:r

(* -- FNV-1a-64 ------------------------------------------------------------ *)

let test_fnv_vectors () =
  List.iter
    (fun (s, h) -> check tstr (Printf.sprintf "fnv64 %S" s) h (Fnv.hex64 (Fnv.fnv64 s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8") ]

(* -- a body encoder independent of Universe.serialize ------------------------

   Mirrors the layout documented in universe.ml, so each test can write a
   body that breaks exactly one rule. Records are (parent, event id) with
   absolute parents; the encoder writes the zigzag deltas. *)

type entry =
  | Int of int * int * int  (** pid, lseq, string id *)
  | Snd of int * int * int * int * int  (** pid, lseq, dst, seq, string id *)
  | Rcv of int * int * int * int * int  (** pid, lseq, src, seq, string id *)

let rec varint b v =
  if v < 0x80 then Buffer.add_char b (Char.chr v)
  else begin
    Buffer.add_char b (Char.chr (v land 0x7f lor 0x80));
    varint b (v lsr 7)
  end

let body ?(depth = 3) ?(n = 2) ~strings ~events records =
  let b = Buffer.create 64 in
  Buffer.add_char b '\001' (* canonical *);
  varint b depth;
  Buffer.add_char b '\000' (* complete *);
  Buffer.add_char b '\000' (* no reduction *);
  varint b n;
  varint b (List.length strings);
  List.iter
    (fun s ->
      varint b (String.length s);
      Buffer.add_string b s)
    strings;
  varint b (List.length events);
  List.iter
    (fun e ->
      let ints tag xs =
        Buffer.add_char b (Char.chr tag);
        List.iter (varint b) xs
      in
      match e with
      | Int (p, l, s) -> ints 0 [ p; l; s ]
      | Snd (p, l, d, q, s) -> ints 1 [ p; l; d; q; s ]
      | Rcv (p, l, r, q, s) -> ints 2 [ p; l; r; q; s ])
    events;
  varint b (List.length records + 1);
  ignore
    (List.fold_left
       (fun prev (parent, eid) ->
         let d = parent - prev in
         varint b (if d >= 0 then 2 * d else (-2 * d) - 1);
         varint b eid;
         parent)
       0 records);
  Buffer.contents b

(* ping-pong to depth 3: [], [ping!], [ping!, ping?], [ping!, ping?, pong!] *)
let strings = [ "ping"; "pong" ]
let ping_send = Snd (0, 0, 1, 0, 0)
let ping_recv = Rcv (1, 0, 0, 0, 0)
let pong_send = Snd (1, 1, 0, 0, 1)
let events = [ ping_send; ping_recv; pong_send ]
let records = [ (0, 0); (1, 1); (2, 2) ]
let ping_pong = lazy (setup ~depth:"3" "ping-pong")

let decode blob = Universe.deserialize (Lazy.force ping_pong).Query.spec blob

(* the hand encoder writes what serialize writes, and it decodes *)
let test_encoder_matches_serialize () =
  let good = body ~strings ~events records in
  let st = Lazy.force ping_pong in
  check tstr "hand-built body = serialize" (Digest.to_hex (Digest.string good))
    (Digest.to_hex (Digest.string (get (Universe.serialize (universe st)))));
  ignore (get (decode good))

(* One case per decoder rule. Every body is valid except for the one
   rule named: each deepest computation is a real ping-pong computation
   (the Spec.valid spot check passes) and every other bound holds, so
   disabling the named check in the decoder makes its case fail. *)
let rejections =
  let extra e = events @ [ e ] in
  [
    ("decreasing parent", body ~strings ~events [ (0, 0); (1, 1); (0, 0) ]);
    ("parent not before child", body ~strings ~events [ (1, 0) ]);
    ("event id out of range", body ~strings ~events [ (0, 3) ]);
    ( "string id out of range",
      body ~strings ~events:[ Snd (0, 0, 1, 0, 2) ] [ (0, 0) ] );
    ("table pid >= n", body ~strings ~events:(extra (Int (2, 0, 0))) records);
    ("table peer >= n", body ~strings ~events:(extra (Snd (0, 0, 2, 0, 0))) records);
    ( "repeated table entry",
      body ~strings ~events:(extra ping_send) records );
    ( "wrong lseq",
      body ~strings ~events:(extra (Snd (0, 1, 1, 0, 0))) [ (0, 3); (0, 0) ] );
    ( "wrong send seq",
      body ~strings ~events:(extra (Snd (0, 0, 1, 1, 0))) [ (0, 3); (0, 0) ] );
    ( "receive of a message never sent",
      body ~strings ~events [ (0, 1); (0, 0); (2, 1); (3, 2) ] );
    ( "receive of a message already received",
      body ~strings ~events:(extra (Rcv (1, 1, 0, 0, 0)))
        [ (0, 0); (1, 1); (2, 3); (2, 2) ] );
    ( "receive whose payload differs",
      body ~strings ~events:(extra (Rcv (1, 0, 0, 0, 1)))
        [ (0, 0); (1, 3); (1, 1); (3, 2) ] );
    ("computation longer than depth", body ~depth:2 ~strings ~events records);
    ("trailing bytes", body ~strings ~events records ^ "\000");
  ]

let rejection_case (what, blob) =
  Alcotest.test_case ("rejects " ^ what) `Quick (fun () ->
      match decode blob with
      | Ok _ -> Alcotest.failf "deserialize accepted a body with %s" what
      | Error _ -> ())

(* root only, so that no Spec.valid spot check runs: the process count
   is the one thing wrong *)
let test_wrong_arity () =
  let root = body ~strings ~events [] in
  ignore (get (decode root));
  let st3 = setup "token-ring:3" in
  match Universe.deserialize st3.Query.spec root with
  | Ok _ -> Alcotest.fail "deserialize accepted a wrong-arity spec"
  | Error _ -> ()

(* -- golden bodies ---------------------------------------------------------

   A change to any of these digests is a change of the body layout:
   bump the container's magic in lib/serve/snapshot.ml (so files in the
   old layout are rejected and rewritten) and re-pin. *)
let test_golden_bodies () =
  List.iter
    (fun (proto, depth, digest) ->
      let u = universe (setup ~depth proto) in
      check tstr
        (Printf.sprintf "%s -d %s body digest" proto depth)
        digest
        (Digest.to_hex (Digest.string (get (Universe.serialize u)))))
    [
      ("ping-pong", "4", "150d7dae14f10dc6a413d10b5760ecff");
      ("token-ring:3", "4", "ef0fa418789d24a56ab9340037761f1d");
      ("two-generals", "3", "df5c63be975e44133d2707956da15756");
    ]

(* -- registry-wide round trip --------------------------------------------- *)

let formula text =
  match Formula.parse text with
  | Ok f -> f
  | Error e -> Alcotest.failf "formula parse %S: %s" text e

(* A decoded universe must be indistinguishable from the enumerated one
   through every accessor a query reads, and answer every op with the
   same bytes. *)
let assert_same what st u =
  let u2 = get (Universe.deserialize st.Query.spec (get (Universe.serialize u))) in
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.failf "%s: %s" what m) fmt in
  let size = Universe.size u in
  if Universe.size u2 <> size then fail "size %d vs %d" (Universe.size u2) size;
  let n = Spec.n st.Query.spec in
  let pids = List.init n Pid.of_int in
  Universe.iter
    (fun i z ->
      if not (Trace.equal z (Universe.comp u2 i)) then fail "comp %d differs" i;
      if Universe.find u2 z <> Some i then fail "find misses comp %d" i)
    u;
  List.iter
    (fun p ->
      if Universe.class_ids u p <> Universe.class_ids u2 p then
        fail "class ids of %s differ" (Pid.to_string p))
    pids;
  List.iter
    (fun ps ->
      if Universe.pset_class_ids u ps <> Universe.pset_class_ids u2 ps then
        fail "pset class ids differ")
    [ Pset.of_list pids; Pset.of_list (List.filteri (fun k _ -> k mod 2 = 0) pids) ];
  let same op (a : Query.outcome) (b : Query.outcome) =
    if a.Query.out <> b.Query.out || a.Query.code <> b.Query.code then
      fail "%s answers differ" op
  in
  same "knows" (Query.run_knows st u) (Query.run_knows st u2);
  same "stats" (Query.run_stats u) (Query.run_stats u2);
  match Protocol.atoms_of st.Query.inst with
  | [] ->
      let f = formula "EF true" in
      same "check" (Query.run_check st u f) (Query.run_check st u2 f)
  | (a, _) :: _ ->
      let f = formula (Printf.sprintf "AG (%s -> EF %s)" a a) in
      same "check" (Query.run_check st u f) (Query.run_check st u2 f);
      same "extent" (Query.run_extent st u ~atom:a) (Query.run_extent st u2 ~atom:a)

(* Every registry protocol at its suggested depth, under a state budget
   that truncates the large ones: Canonical and Full, por and
   por+independence, and every declared fault scenario (crash, drop and
   dup among them). *)
let test_registry_roundtrip () =
  let max_states = "2500" in
  List.iter
    (fun p ->
      let name = Protocol.name p in
      let depth = string_of_int (Protocol.suggested_depth p) in
      let st = setup ~depth ~max_states name in
      let run what u = assert_same (Printf.sprintf "%s -d %s %s" name depth what) st u in
      run "canonical" (universe st);
      run "full" (universe ~mode:`Full st);
      run "por" (universe ~reduce:"por" st);
      run "por+indep" (universe ~reduce:"por" ~indep:true st);
      List.iter
        (fun sc ->
          let st = setup ~depth ~max_states ~faults:sc name in
          assert_same (Printf.sprintf "%s -d %s --faults %s" name depth sc) st
            (universe st))
        (Protocol.fault_scenarios p))
    (Protocol.Registry.list ());
  (* a tight budget truncates mid-level; the status survives the trip *)
  let st = setup ~depth:"4" ~max_states:"50" "chatter" in
  let u = universe st in
  check Alcotest.bool "truncated fixture" true (Universe.status u <> Universe.Complete);
  assert_same "chatter truncated at 50" st u

(* The decoder's in-flight check against its list-building reference:
   every message sent in every computation, and a copy of each with a
   different payload. *)
let test_is_in_flight () =
  List.iter
    (fun (proto, depth, faults) ->
      let u = universe (setup ~depth ?faults proto) in
      Universe.iter
        (fun i z ->
          List.iter
            (fun m ->
              let other = { m with Msg.payload = m.Msg.payload ^ "'"; h = -1 } in
              List.iter
                (fun m ->
                  let expect = List.exists (Msg.equal m) (Trace.in_flight z) in
                  if Trace.is_in_flight z m <> expect then
                    Alcotest.failf "%s comp %d: is_in_flight %s" proto i
                      (Msg.to_string m))
                [ m; other ])
            (Trace.sent z))
        u)
    [ ("ping-pong", "4", None); ("two-generals", "5", Some "dup:*");
      ("chatter", "4", None) ]

(* -- snapshot I/O spans -------------------------------------------------- *)

let test_snapshot_spans () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hpl-snapshot-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Hpl_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Hpl_obs.reset ();
      Hpl_obs.disable ();
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let request t =
        ignore
          (Serve.handle_line t
             {|{"op":"knows","protocol":"ping-pong","depth":4}|})
      in
      let server () =
        Serve.create { Serve.max_cached_states = 1_000_000; cache_dir = Some dir }
      in
      let spans name = Hpl_obs.span_count name in
      let counts () =
        List.map spans
          [ "serve.snapshot_load"; "serve.enumerate"; "serve.snapshot_save" ]
      in
      (* a cold miss probes for the file (the load span), then enumerates
         and saves *)
      request (server ());
      check Alcotest.(list int) "cold: load probe, enumerate, save" [ 1; 1; 1 ]
        (counts ());
      request (server ());
      check Alcotest.(list int) "warm restart: one more load" [ 2; 1; 1 ]
        (counts ()))

let suite =
  [
    Alcotest.test_case "fnv64 matches the published FNV-1a-64 vectors" `Quick
      test_fnv_vectors;
    Alcotest.test_case "hand-built body equals serialize and decodes" `Quick
      test_encoder_matches_serialize;
  ]
  @ List.map rejection_case rejections
  @ [
      Alcotest.test_case "rejects a body for a wrong-arity spec" `Quick
        test_wrong_arity;
      Alcotest.test_case "golden body digests pin the layout" `Quick
        test_golden_bodies;
      Alcotest.test_case "registry round trip equals enumeration" `Quick
        test_registry_roundtrip;
      Alcotest.test_case "is_in_flight agrees with in_flight" `Quick
        test_is_in_flight;
      Alcotest.test_case "serve spans time snapshot load and save" `Quick
        test_snapshot_spans;
    ]
