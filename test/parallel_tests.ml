(* The cached O(1) trace hash: [Trace.hash] is maintained
   incrementally by snoc/of_list and must agree with equality however a
   trace was built. *)
open Hpl_core

(* --- cached trace hash --------------------------------------------- *)

let gen_event =
  QCheck.Gen.(
    int_range 0 2 >>= fun pid ->
    int_range 0 3 >>= fun lseq ->
    let p = Pid.of_int pid in
    oneof
      [
        ( oneofl [ "a"; "b"; "c" ] >|= fun tag ->
          Event.internal ~pid:p ~lseq tag );
        ( int_range 0 2 >>= fun dst ->
          int_range 0 3 >>= fun seq ->
          oneofl [ "m"; "n" ] >|= fun payload ->
          Event.send ~pid:p ~lseq
            (Msg.make ~src:p ~dst:(Pid.of_int dst) ~seq ~payload) );
        ( int_range 0 2 >>= fun src ->
          int_range 0 3 >>= fun seq ->
          oneofl [ "m"; "n" ] >|= fun payload ->
          Event.receive ~pid:p ~lseq
            (Msg.make ~src:(Pid.of_int src) ~dst:p ~seq ~payload) );
      ])

(* an event list together with a seeded Fisher-Yates permutation of it *)
let gen_events_and_permutation =
  QCheck.make
    ~print:(fun (es, perm) ->
      Printf.sprintf "%s / %s"
        (Trace.to_string (Trace.of_list es))
        (Trace.to_string (Trace.of_list perm)))
    QCheck.Gen.(
      list_size (int_range 0 12) gen_event >>= fun es ->
      int >|= fun seed ->
      let a = Array.of_list es in
      let st = Random.State.make [| seed |] in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      (es, Array.to_list a))

let qcheck_props =
  [
    QCheck.Test.make ~name:"hash agrees with equality on permuted traces"
      ~count:500 gen_events_and_permutation (fun (es, perm) ->
        let a = Trace.of_list es and b = Trace.of_list perm in
        (* the fast-path hash must neither break equality (equal lists
           stay equal) nor violate [equal ⇒ same hash] *)
        Trace.equal a b = List.equal Event.equal es perm
        && ((not (Trace.equal a b)) || Trace.hash a = Trace.hash b));
    QCheck.Test.make ~name:"hash independent of construction path" ~count:500
      gen_events_and_permutation (fun (es, _) ->
        let via_of_list = Trace.of_list es in
        let via_snoc = List.fold_left Trace.snoc Trace.empty es in
        let k = List.length es / 2 in
        let prefix = List.filteri (fun i _ -> i < k) es in
        let suffix = List.filteri (fun i _ -> i >= k) es in
        let via_append = Trace.append (Trace.of_list prefix) suffix in
        Trace.equal via_of_list via_snoc
        && Trace.equal via_of_list via_append
        && Trace.hash via_of_list = Trace.hash via_snoc
        && Trace.hash via_of_list = Trace.hash via_append);
    QCheck.Test.make ~name:"rebuilt trace has equal hash" ~count:500
      gen_events_and_permutation (fun (es, _) ->
        let z = Trace.of_list es in
        let z' = Trace.of_list (Trace.to_list z) in
        Trace.equal z z' && Trace.hash z = Trace.hash z');
  ]

let suite =
  List.map (fun p -> QCheck_alcotest.to_alcotest ~verbose:false p) qcheck_props
