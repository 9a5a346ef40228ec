type pset_syntax = int list

type t =
  | True
  | False
  | Atom of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Know of pset_syntax * t
  | Sure of pset_syntax * t
  | Everyone of pset_syntax * t
  | Someone of pset_syntax * t
  | Common of t
  | Ag of t
  | Ef of t
  | Af of t
  | Eg of t
  | Ax of t
  | Ex of t

(* ---------------------------------------------------------------- lexer *)

type token =
  | TTrue
  | TFalse
  | TIdent of string
  | TNot
  | TAnd
  | TOr
  | TArrow
  | TLParen
  | TRParen
  | TLBrace
  | TRBrace
  | TComma
  | TPid of int

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let lex input =
  let n = String.length input in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '~' -> go (i + 1) (TNot :: acc)
      | '&' -> go (i + 1) (TAnd :: acc)
      | '|' -> go (i + 1) (TOr :: acc)
      | '(' -> go (i + 1) (TLParen :: acc)
      | ')' -> go (i + 1) (TRParen :: acc)
      | '{' -> go (i + 1) (TLBrace :: acc)
      | '}' -> go (i + 1) (TRBrace :: acc)
      | ',' -> go (i + 1) (TComma :: acc)
      | '-' when i + 1 < n && input.[i + 1] = '>' -> go (i + 2) (TArrow :: acc)
      | c when (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ->
          let j = ref i in
          while !j < n && is_ident_char input.[!j] do
            incr j
          done;
          let word = String.sub input i (!j - i) in
          let tok =
            match word with
            | "true" -> TTrue
            | "false" -> TFalse
            | w -> (
                (* bare digits or pN are process ids in pset positions;
                   we classify lazily: emit TPid when purely numeric or
                   p<digits>, else identifier — the parser treats TPid
                   as an identifier when a formula atom is expected *)
                match int_of_string_opt w with
                | Some k -> TPid k
                | None ->
                    if
                      String.length w >= 2
                      && w.[0] = 'p'
                      && String.for_all
                           (fun c -> c >= '0' && c <= '9')
                           (String.sub w 1 (String.length w - 1))
                    then TPid (int_of_string (String.sub w 1 (String.length w - 1)))
                    else TIdent w)
          in
          go !j (tok :: acc)
      | c -> Error (Printf.sprintf "unexpected character %C at offset %d" c i)
  in
  go 0 []

(* ---------------------------------------------------------------- parser *)

exception Parse_error of string

let parse input =
  match lex input with
  | Error e -> Error e
  | Ok tokens -> (
      let toks = ref tokens in
      let peek () = match !toks with [] -> None | t :: _ -> Some t in
      let advance () = match !toks with [] -> () | _ :: rest -> toks := rest in
      let expect t what =
        match peek () with
        | Some t' when t' = t -> advance ()
        | _ -> raise (Parse_error ("expected " ^ what))
      in
      let parse_pset () =
        match peek () with
        | Some (TPid k) ->
            advance ();
            [ k ]
        | Some TLBrace ->
            advance ();
            let rec members acc =
              match peek () with
              | Some (TPid k) -> (
                  advance ();
                  match peek () with
                  | Some TComma ->
                      advance ();
                      members (k :: acc)
                  | Some TRBrace ->
                      advance ();
                      List.rev (k :: acc)
                  | _ -> raise (Parse_error "expected ',' or '}' in process set"))
              | _ -> raise (Parse_error "expected process id in process set")
            in
            members []
        | _ -> raise (Parse_error "expected a process id or '{...}'")
      in
      let rec parse_implies () =
        let lhs = parse_or () in
        match peek () with
        | Some TArrow ->
            advance ();
            Implies (lhs, parse_implies ())
        | _ -> lhs
      and parse_or () =
        let lhs = parse_and () in
        let rec go acc =
          match peek () with
          | Some TOr ->
              advance ();
              go (Or (acc, parse_and ()))
          | _ -> acc
        in
        go lhs
      and parse_and () =
        let lhs = parse_prefix () in
        let rec go acc =
          match peek () with
          | Some TAnd ->
              advance ();
              go (And (acc, parse_prefix ()))
          | _ -> acc
        in
        go lhs
      and parse_prefix () =
        match peek () with
        | Some TNot ->
            advance ();
            Not (parse_prefix ())
        | Some TTrue ->
            advance ();
            True
        | Some TFalse ->
            advance ();
            False
        | Some TLParen ->
            advance ();
            let f = parse_implies () in
            expect TRParen "')'";
            f
        | Some (TIdent "K") ->
            advance ();
            let ps = parse_pset () in
            Know (ps, parse_prefix ())
        | Some (TIdent "sure") ->
            advance ();
            let ps = parse_pset () in
            Sure (ps, parse_prefix ())
        | Some (TIdent "E") ->
            advance ();
            let ps = parse_pset () in
            Everyone (ps, parse_prefix ())
        | Some (TIdent "S") ->
            advance ();
            let ps = parse_pset () in
            Someone (ps, parse_prefix ())
        | Some (TIdent "CK") ->
            advance ();
            Common (parse_prefix ())
        | Some (TIdent "AG") ->
            advance ();
            Ag (parse_prefix ())
        | Some (TIdent "EF") ->
            advance ();
            Ef (parse_prefix ())
        | Some (TIdent "AF") ->
            advance ();
            Af (parse_prefix ())
        | Some (TIdent "EG") ->
            advance ();
            Eg (parse_prefix ())
        | Some (TIdent "AX") ->
            advance ();
            Ax (parse_prefix ())
        | Some (TIdent "EX") ->
            advance ();
            Ex (parse_prefix ())
        | Some (TIdent name) ->
            advance ();
            Atom name
        | Some (TPid k) ->
            (* a bare pN in formula position is an atom named "pN" *)
            advance ();
            Atom ("p" ^ string_of_int k)
        | _ -> raise (Parse_error "expected a formula")
      in
      try
        let f = parse_implies () in
        match !toks with
        | [] -> Ok f
        | _ -> Error "trailing tokens after formula"
      with Parse_error e -> Error e)

(* ---------------------------------------------------------------- printer *)

let print_pset = function
  | [ k ] -> "p" ^ string_of_int k
  | ks -> "{" ^ String.concat "," (List.map (fun k -> "p" ^ string_of_int k) ks) ^ "}"

let rec print = function
  | True -> "true"
  | False -> "false"
  | Atom a -> a
  | Not f -> "~" ^ print_atomic f
  | And (a, b) -> print_atomic a ^ " & " ^ print_atomic b
  | Or (a, b) -> print_atomic a ^ " | " ^ print_atomic b
  | Implies (a, b) -> print_atomic a ^ " -> " ^ print_atomic b
  | Know (ps, f) -> "K " ^ print_pset ps ^ " " ^ print_atomic f
  | Sure (ps, f) -> "sure " ^ print_pset ps ^ " " ^ print_atomic f
  | Everyone (ps, f) -> "E " ^ print_pset ps ^ " " ^ print_atomic f
  | Someone (ps, f) -> "S " ^ print_pset ps ^ " " ^ print_atomic f
  | Common f -> "CK " ^ print_atomic f
  | Ag f -> "AG " ^ print_atomic f
  | Ef f -> "EF " ^ print_atomic f
  | Af f -> "AF " ^ print_atomic f
  | Eg f -> "EG " ^ print_atomic f
  | Ax f -> "AX " ^ print_atomic f
  | Ex f -> "EX " ^ print_atomic f

and print_atomic f =
  match f with
  | True | False | Atom _ -> print f
  | _ -> "(" ^ print f ^ ")"

let pp fmt f = Format.pp_print_string fmt (print f)

let atoms f =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let rec go = function
    | Atom a ->
        if not (Hashtbl.mem seen a) then begin
          Hashtbl.add seen a ();
          out := a :: !out
        end
    | True | False -> ()
    | Not f | Know (_, f) | Sure (_, f) | Everyone (_, f) | Someone (_, f)
    | Common f | Ag f | Ef f | Af f | Eg f | Ax f | Ex f ->
        go f
    | And (a, b) | Or (a, b) | Implies (a, b) ->
        go a;
        go b
  in
  go f;
  List.rev !out

(* ------------------------------------------------------- nest matching *)

type nest_level = { op : [ `Know | `Everyone | `Someone ]; pset : pset_syntax }
type nest = { levels : nest_level list; body : t; subformula : t }

(* Maximal knowledge nests: every chain of directly nested K/E/S
   operators, outermost level first, down to the first non-K/E/S
   subformula (the body). [sure] and [CK] are not levels — the gain/loss
   chain theorems (Theorems 4-6) are about [knows]; a [sure] level is
   not veridical and the sure-variant of Theorem 4 is weaker, so a nest
   stops there and the sure/CK subformula becomes a body in its own
   right (its operand is scanned for further nests). *)
let nests formula =
  let out = ref [] in
  let level_of = function
    | Know (ps, f) -> Some ({ op = `Know; pset = ps }, f)
    | Everyone (ps, f) -> Some ({ op = `Everyone; pset = ps }, f)
    | Someone (ps, f) -> Some ({ op = `Someone; pset = ps }, f)
    | _ -> None
  in
  let rec collect_nest acc sub f =
    match level_of f with
    | Some (lvl, inner) -> collect_nest (lvl :: acc) sub inner
    | None ->
        out := { levels = List.rev acc; body = f; subformula = sub } :: !out;
        scan f
  and scan f =
    match level_of f with
    | Some _ -> collect_nest [] f f
    | None -> (
        match f with
        | True | False | Atom _ -> ()
        | Not f | Sure (_, f) | Common f | Ag f | Ef f | Af f | Eg f | Ax f
        | Ex f ->
            scan f
        | And (a, b) | Or (a, b) | Implies (a, b) ->
            scan a;
            scan b
        | Know _ | Everyone _ | Someone _ -> assert false)
  in
  scan formula;
  List.rev !out

let contains_common formula =
  let rec go = function
    | Common _ -> true
    | True | False | Atom _ -> false
    | Not f | Know (_, f) | Sure (_, f) | Everyone (_, f) | Someone (_, f)
    | Ag f | Ef f | Af f | Eg f | Ax f | Ex f ->
        go f
    | And (a, b) | Or (a, b) | Implies (a, b) -> go a || go b
  in
  go formula

(* Pointwise evaluation for the knowledge- and temporal-free fragment:
   the value of such a formula at one computation needs no universe.
   [None] as soon as a knowledge or temporal operator (whose value
   quantifies over other computations) appears, or an atom is unbound. *)
let eval_at ~env formula z =
  let rec go = function
    | True -> Some true
    | False -> Some false
    | Atom a -> Option.map (fun p -> Prop.eval p z) (env a)
    | Not f -> Option.map not (go f)
    | And (a, b) -> (
        match (go a, go b) with
        | Some a, Some b -> Some (a && b)
        | _ -> None)
    | Or (a, b) -> (
        match (go a, go b) with
        | Some a, Some b -> Some (a || b)
        | _ -> None)
    | Implies (a, b) -> (
        match (go a, go b) with
        | Some a, Some b -> Some ((not a) || b)
        | _ -> None)
    | Know _ | Sure _ | Everyone _ | Someone _ | Common _ | Ag _ | Ef _
    | Af _ | Eg _ | Ax _ | Ex _ ->
        None
  in
  go formula

(* ---------------------------------------------------------------- eval *)

let ( let* ) = Result.bind

let eval u ~env formula =
  let nprocs = Spec.n (Universe.spec u) in
  let pset_of ks =
    if List.for_all (fun k -> k >= 0 && k < nprocs) ks then
      Ok (Pset.of_list (List.map Pid.of_int ks))
    else Error (Printf.sprintf "process id out of range (system has %d)" nprocs)
  in
  (* temporal subformulas compile through Temporal; epistemic and
     boolean ones directly to Props. We interleave by evaluating to a
     Prop at every level (Temporal.check gives extents, wrapped back). *)
  let of_temporal tf = Prop.of_extent u "tmp" (Temporal.check u tf) in
  let rec go = function
    | True -> Ok Prop.tt
    | False -> Ok Prop.ff
    | Atom a -> (
        match env a with
        | Some p -> Ok p
        | None -> Error (Printf.sprintf "unbound atom %S" a))
    | Not f ->
        let* p = go f in
        Ok (Prop.not_ p)
    | And (a, b) ->
        let* pa = go a in
        let* pb = go b in
        Ok (Prop.and_ pa pb)
    | Or (a, b) ->
        let* pa = go a in
        let* pb = go b in
        Ok (Prop.or_ pa pb)
    | Implies (a, b) ->
        let* pa = go a in
        let* pb = go b in
        Ok (Prop.implies pa pb)
    | Know (ks, f) ->
        let* ps = pset_of ks in
        let* p = go f in
        Ok (Knowledge.knows u ps p)
    | Sure (ks, f) ->
        let* ps = pset_of ks in
        let* p = go f in
        Ok (Knowledge.sure u ps p)
    | Everyone (ks, f) ->
        let* ps = pset_of ks in
        let* p = go f in
        Ok (Group.everyone u ps p)
    | Someone (ks, f) ->
        let* ps = pset_of ks in
        let* p = go f in
        Ok (Group.someone u ps p)
    | Common f ->
        let* p = go f in
        Ok (Common_knowledge.common u p)
    | Ag f ->
        let* p = go f in
        Ok (of_temporal (Temporal.ag (Temporal.atom p)))
    | Ef f ->
        let* p = go f in
        Ok (of_temporal (Temporal.ef (Temporal.atom p)))
    | Af f ->
        let* p = go f in
        Ok (of_temporal (Temporal.af (Temporal.atom p)))
    | Eg f ->
        let* p = go f in
        Ok (of_temporal (Temporal.eg (Temporal.atom p)))
    | Ax f ->
        let* p = go f in
        Ok (of_temporal (Temporal.ax (Temporal.atom p)))
    | Ex f ->
        let* p = go f in
        Ok (of_temporal (Temporal.ex (Temporal.atom p)))
  in
  go formula

let check u ~env formula =
  let* p = eval u ~env formula in
  (* the least stored index outside the extent: the first computation,
     in index order, where [p] fails *)
  match Bitset.choose (Bitset.complement (Prop.extent u p)) with
  | None -> Ok `Valid
  | Some i -> Ok (`Fails_at (Universe.comp u i))
