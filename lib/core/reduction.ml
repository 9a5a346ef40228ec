(* --- static independence --------------------------------------------

   Facts about a spec that no enumeration can discover on its own,
   computed by the abstract interpreter ([Hpl_analysis.Dataflow]) and
   handed down here:

   - [stable.(p)]: process p performs no receive in any reachable
     history. A stable process's enabled set depends only on its own
     local history — no other process's event can enable, disable or
     change it — and none of its events is a receive.
   - [bound.(p)]: a finite upper bound on the total number of events p
     performs in any computation; [total] is their sum.

   [total <= depth] is the no-truncation certificate: every computation
   of length [depth] that the enumeration explores is genuinely blocked
   (quiescent), not cut off by the bound, so "inevitable" arguments
   about blocked computations apply to every leaf. *)

module Independence = struct
  type t = { stable : bool array; bound : int array; total : int }

  let make ~stable ~bound =
    if Array.length stable <> Array.length bound then
      invalid_arg "Reduction.Independence.make: array length mismatch";
    { stable; bound; total = Array.fold_left ( + ) 0 bound }

  let applicable t ~depth = t.total <= depth
  let stable t p = t.stable.(p)
  let bound t p = t.bound.(p)
  let total t = t.total
  let n t = Array.length t.stable
end

type t = {
  sym : Symmetry.group option;
  por : bool;
  indep : Independence.t option;
}

let none = { sym = None; por = false; indep = None }
let por = { sym = None; por = true; indep = None }
let sym g = { sym = Some g; por = false; indep = None }
let full g = { sym = Some g; por = true; indep = None }
let is_none r = Option.is_none r.sym && not r.por
let symmetry r = r.sym
let uses_por r = r.por
let with_independence r ind = { r with indep = Some ind }
let independence r = r.indep

let label r =
  match (r.sym, r.por) with
  | None, false -> "none"
  | None, true -> "por"
  | Some _, false -> "sym"
  | Some _, true -> "full"

type mode = [ `None | `Sym | `Por | `Full ]

let mode_to_string = function
  | `None -> "none"
  | `Sym -> "sym"
  | `Por -> "por"
  | `Full -> "full"

let mode_of_string = function
  | "none" -> Ok `None
  | "sym" -> Ok `Sym
  | "por" -> Ok `Por
  | "full" -> Ok `Full
  | s -> Error (Printf.sprintf "unknown reduction %S (expected none|sym|por|full)" s)

let resolve mode ~symmetry:g =
  match (mode, g) with
  | `None, _ -> Ok none
  | `Por, _ -> Ok por
  | (`Sym | `Full), None ->
      Error
        "this protocol declares no symmetry generators (see `hpl list -v`); \
         only --reduce none|por apply"
  | `Sym, Some g -> Ok (sym g)
  | `Full, Some g -> Ok (full g)

(* --- incremental canonicity ------------------------------------------

   An extension [(z; e)] of a canonical [z] is canonical iff no event
   placed at or after the position where [e] became available — right
   after its last direct predecessor — is greater than [e]. Rescanning
   [z] for that per candidate costs O(length); here the context carried
   from parent to child holds what the test needs:

   - the suffix-maximum records of [z] (the events greater than every
     later event), newest first. [Event.compare] orders by pid and then
     by lseq, so an event is always smaller than a later event of its
     own process: only a process's last event can be a record, and
     there is at most one record per pid. Newest first, the records
     increase.
   - the position of each process's last event — the same-process
     direct predecessor of any extension on it;
   - the send position of each in-flight message — the direct
     predecessor of its receive.

   [keep] walks the records at or after the availability position and
   [step] drops the records the new event dominates, so both cost O(n)
   for n processes, independent of the trace length. *)

module Canon = struct
  type records = Nil | Rec of { pos : int; ev : Event.t; older : records }

  type ctx = {
    len : int;
    records : records; (* newest first, increasing *)
    last_pos : int array; (* per pid, -1 when the process has no event *)
    sends : (Msg.t * int) list; (* in-flight messages and their send positions *)
  }

  let empty ~n = { len = 0; records = Nil; last_pos = Array.make n (-1); sends = [] }

  let rec send_pos m = function
    | [] -> -1
    | (m', i) :: rest -> if Msg.equal m m' then i else send_pos m rest

  let keep ctx e =
    let same_pid = ctx.last_pos.(Pid.to_int e.Event.pid) in
    let from_send =
      match e.Event.kind with
      | Event.Receive m -> send_pos m ctx.sends
      | Event.Send _ | Event.Internal _ -> -1
    in
    let avail = 1 + max same_pid from_send in
    let rec below = function
      | Rec r when r.pos >= avail -> Event.compare r.ev e < 0 && below r.older
      | Rec _ | Nil -> true
    in
    below ctx.records

  let step ctx e =
    let rec drop = function
      | Rec r when Event.compare r.ev e < 0 -> drop r.older
      | rs -> rs
    in
    let last_pos = Array.copy ctx.last_pos in
    last_pos.(Pid.to_int e.Event.pid) <- ctx.len;
    let sends =
      match e.Event.kind with
      | Event.Send m -> (m, ctx.len) :: ctx.sends
      | Event.Receive m -> List.filter (fun (m', _) -> not (Msg.equal m m')) ctx.sends
      | Event.Internal _ -> ctx.sends
    in
    {
      len = ctx.len + 1;
      records = Rec { pos = ctx.len; ev = e; older = drop ctx.records };
      last_pos;
      sends;
    }
end

(* --- incremental enabled sets ---------------------------------------

   [Spec.enabled] recomputes every process's projection and the
   in-flight pool by scanning the whole trace at every state. But a
   one-event extension only changes the enabled set of the extending
   process (its history and, for a receive, the pool entry it consumes)
   and — when the event is a send — of the destination (receives are
   filtered by [dst], so no other pool consumer exists). Carrying the
   per-process histories, per-process enabled lists and the pool from
   parent to child makes a step cost at most two rule invocations
   instead of [n] full-trace scans.

   Event lists are kept per process, each sorted and deduplicated by
   [Spec.step_events]; [Event.compare] orders by pid first, so their
   concatenation in pid order is exactly [Spec.enabled]'s output. *)

module Enabled = struct
  type ctx = {
    hists_rev : Event.t list array; (* newest first, tails shared *)
    by_pid : Event.t list array;
    pool : Msg.t list;
  }

  let recompute spec ~hists_rev ~pool q =
    Spec.step_events spec (Pid.of_int q)
      ~history:(List.rev hists_rev.(q))
      ~pool

  let init spec =
    let n = Spec.n spec in
    let hists_rev = Array.make n [] in
    let pool = [] in
    {
      hists_rev;
      by_pid = Array.init n (fun q -> recompute spec ~hists_rev ~pool q);
      pool;
    }

  let events ctx = List.concat (Array.to_list ctx.by_pid)

  let step spec ctx e =
    let n = Array.length ctx.by_pid in
    let pi = Pid.to_int e.Event.pid in
    let hists_rev = Array.copy ctx.hists_rev in
    hists_rev.(pi) <- e :: hists_rev.(pi);
    let pool =
      match e.Event.kind with
      | Event.Send m -> m :: ctx.pool
      | Event.Receive m -> List.filter (fun m' -> not (Msg.equal m' m)) ctx.pool
      | Event.Internal _ -> ctx.pool
    in
    let by_pid = Array.copy ctx.by_pid in
    by_pid.(pi) <- recompute spec ~hists_rev ~pool pi;
    (match e.Event.kind with
    | Event.Send m ->
        let d = Pid.to_int m.Msg.dst in
        if d <> pi && d >= 0 && d < n then
          by_pid.(d) <- recompute spec ~hists_rev ~pool d
    | Event.Receive _ | Event.Internal _ -> ());
    { hists_rev; by_pid; pool }
end

(* --- ample-set restriction ------------------------------------------

   At a canonical state, let x0 be the globally least enabled event
   ([Event.compare] is pid-major and [Enabled.events] concatenates the
   sorted per-pid lists in pid order, so x0 heads the candidate list)
   and p its process. If p is stable and x0 is p's only enabled event,
   {x0} is a valid ample set for the blocked fragment of the universe:

   - x0 is inevitable: p's enabled set cannot be changed by any other
     process (stability), so in every blocked extension of this state
     p eventually performs x0 — a blocked computation omitting it would
     leave x0 enabled forever.
   - the canonical linearization of any blocked class through this
     state continues with x0: x0 is ready (its same-process predecessor
     is in the state; a stable p's event is never a receive, so it has
     no cross-process predecessor) and globally least among enabled
     events, hence the lexicographically least continuation.
   - canonicity is prefix-closed, so if the x0-extension is itself
     non-canonical, no canonical linearization of a blocked class
     passes through this state at all and pruning the siblings loses
     nothing.

   Together with [Independence.applicable] (every depth-limit leaf is
   genuinely blocked) this preserves every blocked computation's class,
   which is what knowledge queries over complete runs consume. States
   on the way to unvisited interleavings of the {e same} classes are
   dropped — that is the reduction. *)

let restrict ind ctx cands =
  match cands with
  | e :: _ :: _ -> (
      let p = Pid.to_int e.Event.pid in
      if p < Independence.n ind && Independence.stable ind p then
        match ctx.Enabled.by_pid.(p) with [ _ ] -> [ e ] | _ -> cands
      else cands)
  | _ -> cands
