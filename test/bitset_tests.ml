open Hpl_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let test_empty_full () =
  let e = Bitset.create 100 and f = Bitset.create_full 100 in
  check tint "empty card" 0 (Bitset.cardinal e);
  check tint "full card" 100 (Bitset.cardinal f);
  check tbool "empty is_empty" true (Bitset.is_empty e);
  check tbool "full not empty" false (Bitset.is_empty f);
  check tbool "e subset f" true (Bitset.subset e f);
  check tbool "f not subset e" false (Bitset.subset f e)

let test_full_sizes () =
  (* domain sizes around the word boundary *)
  List.iter
    (fun n ->
      let f = Bitset.create_full n in
      check tint (Printf.sprintf "full %d" n) n (Bitset.cardinal f);
      if n > 0 then begin
        check tbool "first" true (Bitset.mem f 0);
        check tbool "last" true (Bitset.mem f (n - 1))
      end)
    [ 0; 1; 61; 62; 63; 64; 123; 124; 125; 200 ]

let test_add_remove () =
  let s = Bitset.create 70 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 69;
  check tint "card 3" 3 (Bitset.cardinal s);
  check tbool "mem 63" true (Bitset.mem s 63);
  Bitset.remove s 63;
  check tbool "removed" false (Bitset.mem s 63);
  check tint "card 2" 2 (Bitset.cardinal s);
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.mem s 70))

let test_algebra () =
  let a = Bitset.of_pred 128 (fun i -> i mod 2 = 0) in
  let b = Bitset.of_pred 128 (fun i -> i mod 3 = 0) in
  check tint "union" (64 + 43 - 22) (Bitset.cardinal (Bitset.union a b));
  check tint "inter" 22 (Bitset.cardinal (Bitset.inter a b));
  check tint "diff" (64 - 22) (Bitset.cardinal (Bitset.diff a b));
  check tint "compl" 64 (Bitset.cardinal (Bitset.complement a));
  check tbool "de morgan" true
    (Bitset.equal
       (Bitset.complement (Bitset.union a b))
       (Bitset.inter (Bitset.complement a) (Bitset.complement b)))

let test_into () =
  let a = Bitset.of_pred 80 (fun i -> i < 40) in
  let b = Bitset.of_pred 80 (fun i -> i >= 20) in
  let a' = Bitset.copy a in
  Bitset.inter_into a' b;
  check tbool "inter_into" true (Bitset.equal a' (Bitset.inter a b));
  let a'' = Bitset.copy a in
  Bitset.union_into a'' b;
  check tbool "union_into" true (Bitset.equal a'' (Bitset.union a b))

let test_iteration () =
  let s = Bitset.of_pred 100 (fun i -> i mod 10 = 0) in
  check Alcotest.(list int) "to_list" [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
    (Bitset.to_list s);
  check tint "fold" 450 (Bitset.fold ( + ) s 0);
  check tbool "for_all" true (Bitset.for_all (fun i -> i mod 5 = 0) s);
  check tbool "not for_all" false (Bitset.for_all (fun i -> i < 50) s);
  check tbool "exists" true (Bitset.exists (fun i -> i = 50) s);
  check tbool "not exists" false (Bitset.exists (fun i -> i = 55) s);
  check Alcotest.(option int) "choose" (Some 0) (Bitset.choose s);
  check Alcotest.(option int) "choose empty" None (Bitset.choose (Bitset.create 10))

(* of_pred, iter and cardinal work a word at a time: compare them with a
   bool-array model at lengths around the 62-bit word boundary, for
   empty, full, sparse, dense and seeded-random contents *)
let test_word_boundaries () =
  let rng = Random.State.make [| 62 |] in
  List.iter
    (fun n ->
      let patterns =
        [
          ("empty", Array.make n false);
          ("full", Array.make n true);
          ("ends", Array.init n (fun i -> i = 0 || i = n - 1));
          ("every third", Array.init n (fun i -> i mod 3 = 0));
          ("all but one", Array.init n (fun i -> i <> n / 2));
          ("random", Array.init n (fun _ -> Random.State.bool rng));
        ]
      in
      List.iter
        (fun (what, model) ->
          let what = Printf.sprintf "n=%d %s" n what in
          let calls = ref [] in
          let s =
            Bitset.of_pred n (fun i ->
                calls := i :: !calls;
                model.(i))
          in
          check Alcotest.(list int) (what ^ ": of_pred calls in order")
            (List.init n Fun.id) (List.rev !calls);
          let members =
            List.filter (fun i -> model.(i)) (List.init n Fun.id)
          in
          check tint (what ^ ": length") n (Bitset.length s);
          check tint (what ^ ": cardinal") (List.length members)
            (Bitset.cardinal s);
          let seen = ref [] in
          Bitset.iter (fun i -> seen := i :: !seen) s;
          check Alcotest.(list int) (what ^ ": iter") members (List.rev !seen);
          Array.iteri
            (fun i b -> check tbool (Printf.sprintf "%s: mem %d" what i) b (Bitset.mem s i))
            model;
          check tint (what ^ ": complement cardinal")
            (n - List.length members)
            (Bitset.cardinal (Bitset.complement s));
          check Alcotest.(option int) (what ^ ": choose")
            (match members with [] -> None | i :: _ -> Some i)
            (Bitset.choose s))
        patterns)
    [ 0; 1; 61; 62; 63; 124; 125 ]

let qcheck_props =
  let gen_set =
    QCheck.make
      ~print:(fun (n, l) -> Printf.sprintf "n=%d [%s]" n (String.concat ";" (List.map string_of_int l)))
      QCheck.Gen.(
        int_range 1 300 >>= fun n ->
        list_size (int_range 0 50) (int_range 0 (n - 1)) >>= fun l -> return (n, l))
  in
  let mk (n, l) =
    let s = Bitset.create n in
    List.iter (Bitset.add s) l;
    s
  in
  [
    QCheck.Test.make ~name:"bitset cardinal = |distinct|" ~count:200 gen_set
      (fun (n, l) ->
        Bitset.cardinal (mk (n, l)) = List.length (List.sort_uniq compare l));
    QCheck.Test.make ~name:"bitset to_list sorted distinct" ~count:200 gen_set
      (fun (n, l) ->
        let tl = Bitset.to_list (mk (n, l)) in
        tl = List.sort_uniq compare l);
    QCheck.Test.make ~name:"bitset double complement" ~count:200 gen_set
      (fun (n, l) ->
        let s = mk (n, l) in
        Bitset.equal s (Bitset.complement (Bitset.complement s)));
    QCheck.Test.make ~name:"bitset union/inter absorption" ~count:200
      (QCheck.pair gen_set gen_set) (fun ((n1, l1), (_, l2)) ->
        let n = n1 in
        let clip = List.filter (fun i -> i < n) in
        let a = mk (n, l1) and b = mk (n, clip l2) in
        Bitset.equal a (Bitset.inter a (Bitset.union a b)));
  ]

let suite =
  [
    ("empty/full", `Quick, test_empty_full);
    ("full at boundaries", `Quick, test_full_sizes);
    ("add/remove", `Quick, test_add_remove);
    ("algebra", `Quick, test_algebra);
    ("in-place ops", `Quick, test_into);
    ("iteration", `Quick, test_iteration);
    ("word boundaries vs bool-array model", `Quick, test_word_boundaries);
  ]
  @ List.map (fun p -> QCheck_alcotest.to_alcotest ~verbose:false p) qcheck_props
