(* In-process replay of a benchmark request stream, timing the calls
   into each layer's public entry points (perfbench/README.md).

   Usage:
     trace.exe cli FILE [--plain]
     trace.exe handle FILE --max-cached-states N [--cache-dir DIR]
     trace.exe layers FILE --max-cached-states N [--cache-dir DIR]

   FILE holds one JSON request per line. [cli] takes {"argv": [...]}
   (an hpl command line without the program name) and replays it the
   way bin/hpl.ml does; [handle] and [layers] take daemon frames.
   Output is one JSON object per timed request; [handle] adds one per
   pass with the Hpl_obs enumerate phase totals. All times are
   microseconds.

   [cli] times dsl load, resolve, reduce, enumerate (with the
   Hpl_obs phase aggregates), evaluation, lint and flow; with --plain
   it runs the same work untimed per layer and with observability off,
   so the difference between the two is the tracing overhead. [handle]
   times Serve.handle_line per request in two passes, each on a fresh
   server: observability on (as the daemon ships), then off. [layers]
   decomposes each frame into the calls Serve.handle_line makes
   (Json.parse, Query.resolve, resolve_reduce, Serve.cache_key, Cache,
   Snapshot, Query.enumerate, Query.run_*, Json.to_string) on a cache of
   its own. *)

open Hpl_core
open Hpl_protocols
open Hpl_analysis
module Json = Hpl_serve.Json
module Query = Hpl_serve.Query
module Serve = Hpl_serve.Serve
module Cache = Hpl_serve.Cache
module Snapshot = Hpl_serve.Snapshot

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1e6)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("trace: " ^ m); exit 2) fmt

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let parse_json line =
  match Json.parse line with Ok j -> j | Error e -> die "bad frame %S: %s" line e

(* The digest the benchmark's golden file records: stdout, stderr and
   exit code of one query. *)
let digest ~out ~err ~code =
  Digest.to_hex (Digest.string (out ^ "\000" ^ err ^ "\000" ^ string_of_int code))

let emit fields = print_endline (Json.to_string (Json.Obj fields))
let num v = Json.Float v
let times ts = Json.Obj (List.map (fun (k, v) -> (k, num v)) ts)

(* -- cli ---------------------------------------------------------------- *)

type cli = {
  cmd : string;
  proto : string option;
  file : string option;
  depth : string option;
  faults : string option;
  reduce : string;
  mode : Universe.mode;
  formulas : string list;
  verbose : bool;
  pos : string list;
}

let parse_argv = function
  | [] -> die "empty argv"
  | cmd :: rest ->
      let c =
        ref
          {
            cmd;
            proto = None;
            file = None;
            depth = None;
            faults = None;
            reduce = "none";
            mode = `Canonical;
            formulas = [];
            verbose = false;
            pos = [];
          }
      in
      let rec go = function
        | [] -> ()
        | ("-s" | "--system") :: v :: r -> c := { !c with proto = Some v }; go r
        | "-f" :: v :: r -> c := { !c with file = Some v }; go r
        | ("-d" | "--depth") :: v :: r -> c := { !c with depth = Some v }; go r
        | "--faults" :: v :: r -> c := { !c with faults = Some v }; go r
        | "--reduce" :: v :: r -> c := { !c with reduce = v }; go r
        | ("-m" | "--mode") :: "full" :: r -> c := { !c with mode = `Full }; go r
        | ("-m" | "--mode") :: _ :: r -> go r
        | "--formula" :: v :: r ->
            c := { !c with formulas = !c.formulas @ [ v ] };
            go r
        | ("-v" | "--verbose") :: r -> c := { !c with verbose = true }; go r
        | a :: _ when String.length a > 0 && a.[0] = '-' ->
            die "unsupported flag %s" a
        | a :: r -> c := { !c with pos = !c.pos @ [ a ] }; go r
      in
      go rest;
      !c

let ok = function Ok v -> v | Error m -> die "replay failed: %s" m

(* Layer times of one request; repeated calls into a layer add up. *)
type acc = { mutable t : (string * float) list }

let add a k v =
  a.t <-
    (match List.assoc_opt k a.t with
    | Some v0 -> (k, v0 +. v) :: List.remove_assoc k a.t
    | None -> (k, v) :: a.t)

let obs_phase name = Hpl_obs.span_total_us name

(* Replay one CLI request; returns (digest option, states enumerated).
   With [a] = None nothing is timed per layer. *)
let run_cli ?a c =
  let tm k f =
    match a with
    | None -> f ()
    | Some a ->
        let r, us = timed f in
        add a k us;
        r
  in
  let universe_query () =
    (* the DSL load is timed on its own; Query.resolve loads again and
       the summary subtracts this from resolve *)
    (match (a, c.file) with
    | Some _, Some f -> ignore (tm "dsl" (fun () -> ok (Query.resolve_proto ~file:f ())))
    | _ -> ());
    let st =
      tm "resolve" (fun () ->
          ok
            (Query.resolve ?proto:c.proto ?file:c.file ?depth:c.depth
               ?faults:c.faults ()))
    in
    let mode = if c.cmd = "knows" || c.cmd = "extent" then `Canonical else c.mode in
    let reduce =
      tm "reduce" (fun () ->
          ok (Query.resolve_reduce st ~mode ~indep:(c.cmd = "enumerate") c.reduce))
    in
    let phases = [ "enumerate.frontier"; "enumerate.intern"; "enumerate.merge" ] in
    let before = List.map obs_phase phases in
    let u = tm "enumerate" (fun () -> Query.enumerate ~mode st ~reduce) in
    (match a with
    | Some a ->
        List.iter2
          (fun name b0 -> add a ("phase:" ^ name) (obs_phase name -. b0))
          phases before
    | None -> ());
    (st, u)
  in
  match c.cmd with
  | "enumerate" | "knows" | "check" | "extent" ->
      let f =
        if c.cmd = "check" then
          match c.pos with
          | [ text ] -> Some (ok (Formula.parse text))
          | _ -> die "check needs one formula"
        else None
      in
      let st, u = universe_query () in
      let o =
        match c.cmd with
        | "knows" -> tm "eval.knows" (fun () -> Query.run_knows st u)
        | "check" -> tm "eval.check" (fun () -> Query.run_check st u (Option.get f))
        | "extent" ->
            let atom = match c.pos with [ x ] -> x | _ -> die "extent needs one atom" in
            tm "eval.extent" (fun () -> Query.run_extent st u ~atom)
        | _ -> tm "eval.stats" (fun () -> Query.run_stats u)
      in
      if c.verbose then die "-v is not replayed";
      (Some (digest ~out:o.Query.out ~err:o.Query.err ~code:o.Query.code),
       Universe.size u)
  | "lint" ->
      let formulas = List.map (fun t -> ok (Formula.parse t)) c.formulas in
      let layer = if c.file = None then "resolve" else "dsl" in
      let inst, loaded =
        tm layer (fun () -> ok (Query.resolve_proto ?proto:c.proto ?file:c.file ()))
      in
      let report = tm "lint" (fun () -> Lint.lint_instance ~formulas inst) in
      let report =
        tm "flow" (fun () ->
            match Query.dataflow ~loaded inst with
            | None -> report
            | Some df ->
                let expect = Protocol.lint_expect (Protocol.proto inst) in
                { report with Lint.findings = report.Lint.findings @ Dataflow.findings df ~expect })
      in
      let out = Format.asprintf "%a@." Lint.pp_report report in
      (Some (digest ~out ~err:"" ~code:(Lint.exit_code [ report ])), 0)
  | "flow" ->
      let layer = if c.file = None then "resolve" else "dsl" in
      let inst, loaded =
        tm layer (fun () -> ok (Query.resolve_proto ?proto:c.proto ?file:c.file ()))
      in
      tm "flow" (fun () ->
          match Query.dataflow ~loaded inst with
          | None -> die "no flow analysis for %s" (Protocol.instance_name inst)
          | Some df ->
              ignore
                (Dataflow.findings df
                   ~expect:(Protocol.lint_expect (Protocol.proto inst))));
      (None, 0)
  | cmd -> die "unsupported command %s" cmd

let cli_mode path ~plain =
  if plain then Hpl_obs.disable () else Hpl_obs.enable ();
  List.iteri
    (fun i line ->
      let argv =
        match Json.member "argv" (parse_json line) with
        | Some (Json.List l) ->
            List.map (function Json.Str s -> s | _ -> die "argv must be strings") l
        | _ -> die "line %d: no argv" i
      in
      let c = parse_argv argv in
      if plain then begin
        let (d, _), total = timed (fun () -> run_cli c) in
        emit
          [
            ("i", Json.Int i);
            ("digest", match d with Some d -> Json.Str d | None -> Json.Null);
            ("total", num total);
          ]
      end
      else begin
        Hpl_obs.reset ();
        let a = { t = [] } in
        let (d, states), total = timed (fun () -> run_cli ~a c) in
        emit
          [
            ("i", Json.Int i);
            ("digest", match d with Some d -> Json.Str d | None -> Json.Null);
            ("total", num total);
            ("states", Json.Int states);
            ("t", times (List.rev a.t));
          ]
      end)
    (read_lines path)

(* -- serve: handle_line per request ------------------------------------- *)

let reply_digest reply =
  let j = parse_json reply in
  let s k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let code = match Json.int_member "exit" j with Some c -> c | None -> -1 in
  (j, digest ~out:(s "answer") ~err:(s "error") ~code)

let ensure_dir = function
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ()

let handle_mode path ~max_states ~cache_dir =
  let lines = read_lines path in
  List.iteri
    (fun k obs ->
      let cache_dir = Option.map (fun d -> Filename.concat d (Printf.sprintf "pass%d" k)) cache_dir in
      ensure_dir cache_dir;
      let t = Serve.create { Serve.max_cached_states = max_states; cache_dir } in
      (* the daemon ships with observability on; "off" is the
         comparison pass for the obs overhead *)
      if obs then Hpl_obs.enable () else Hpl_obs.disable ();
      List.iteri
        (fun i line ->
          let reply, us = timed (fun () -> Serve.handle_line t line) in
          let j, d = reply_digest reply in
          let _, render = timed (fun () -> Json.to_string j) in
          emit
            [
              ("pass", Json.Int k);
              ("obs", Json.Bool obs);
              ("i", Json.Int i);
              ("handle", num us);
              ("render", num render);
              ("bytes", Json.Int (String.length reply));
              ("digest", Json.Str d);
            ])
        lines;
      emit
        [
          ("pass", Json.Int k);
          ("obs", Json.Bool obs);
          ("enumerations", Json.Int (Hpl_obs.span_count "enumerate"));
          ( "phases",
            times
              (List.map
                 (fun n -> ("phase:" ^ n, Hpl_obs.span_total_us n))
                 [ "enumerate.frontier"; "enumerate.intern"; "enumerate.merge" ]) );
        ])
    [ true; false ]

(* -- serve: the calls handle_line makes, one layer at a time ------------- *)

let layers_mode path ~max_states ~cache_dir =
  Hpl_obs.disable ();
  ensure_dir cache_dir;
  let cache = Cache.create ~max_states in
  let run ?a line =
    let tm k f =
      match a with
      | None -> f ()
      | Some a ->
          let r, us = timed f in
          add a k us;
          r
    in
    let req = tm "json.parse" (fun () -> parse_json line) in
    let field k = Json.str_member k req in
    let op = Option.value (field "op") ~default:"" in
    let formula =
      if op = "check" then
        Some (tm "eval.check" (fun () -> ok (Formula.parse (Option.get (field "formula")))))
      else None
    in
    let file = field "file" in
    (match file with
    | Some f -> ignore (tm "dsl" (fun () -> ok (Query.resolve_proto ~file:f ())))
    | None -> ());
    let st =
      tm "resolve" (fun () ->
          ok
            (Query.resolve ?proto:(field "protocol") ?file ?depth:(field "depth")
               ?faults:(field "faults") ?max_states:(field "max-states") ()))
    in
    let mode = match field "mode" with Some "full" -> `Full | _ -> `Canonical in
    let reduce =
      tm "reduce" (fun () ->
          ok
            (Query.resolve_reduce st ~mode ~indep:(op = "enumerate-stats")
               (Option.value (field "reduce") ~default:"none")))
    in
    let key = tm "cache" (fun () -> Serve.cache_key st ~mode ~reduce) in
    let u =
      match tm "cache" (fun () -> Cache.find cache key) with
      | Some u -> u
      | None ->
          let loaded =
            match cache_dir with
            | None -> None
            | Some dir -> (
                match tm "snapshot.load" (fun () -> Snapshot.load ~dir ~key st.Query.spec) with
                | Ok u -> Some u
                | Error _ -> None)
          in
          let u =
            match loaded with
            | Some u -> u
            | None ->
                let u = tm "enumerate" (fun () -> Query.enumerate ~mode st ~reduce) in
                (match cache_dir with
                | Some dir -> (
                    match tm "snapshot.save" (fun () -> Snapshot.save ~dir ~key u) with
                    | Ok () -> (
                        match a with
                        | Some a ->
                            add a "snapshot.bytes"
                              (float_of_int (Unix.stat (Snapshot.path_of ~dir ~key)).Unix.st_size)
                        | None -> ())
                    | Error _ -> ())
                | None -> ());
                u
          in
          tm "cache" (fun () -> Cache.add cache key u);
          u
    in
    let o =
      match op with
      | "knows" -> tm "eval.knows" (fun () -> Query.run_knows st u)
      | "check" -> tm "eval.check" (fun () -> Query.run_check st u (Option.get formula))
      | "extent" ->
          tm "eval.extent" (fun () ->
              Query.run_extent st u ~atom:(Option.get (field "atom")))
      | _ -> tm "eval.stats" (fun () -> Query.run_stats u)
    in
    (o, Universe.size u)
  in
  List.iteri
    (fun i line ->
      let a = { t = [] } in
      let (o, states), total = timed (fun () -> run ~a line) in
      emit
        [
          ("i", Json.Int i);
          ("digest", Json.Str (digest ~out:o.Query.out ~err:o.Query.err ~code:o.Query.code));
          ("total", num total);
          ("states", Json.Int states);
          ("t", times (List.rev a.t));
        ])
    (read_lines path)

(* -- command line ------------------------------------------------------- *)

let () =
  Builtins.init ();
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: r -> opt name r
    | [] -> None
  in
  let flag name = List.mem name args in
  let max_states () =
    match Option.bind (opt "--max-cached-states" args) int_of_string_opt with
    | Some n -> n
    | None -> die "--max-cached-states N is required"
  in
  let cache_dir = opt "--cache-dir" args in
  match args with
  | "cli" :: path :: _ -> cli_mode path ~plain:(flag "--plain")
  | "handle" :: path :: _ -> handle_mode path ~max_states:(max_states ()) ~cache_dir
  | "layers" :: path :: _ -> layers_mode path ~max_states:(max_states ()) ~cache_dir
  | _ -> die "usage: trace.exe (cli|handle|layers) FILE [options]"
