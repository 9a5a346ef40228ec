(** Bounded computation universes.

    The paper's definitions quantify over all system computations ("for
    all y: x \[P\] y : b at y"). For a finite system we make those
    quantifiers executable by enumerating every computation up to a
    depth bound.

    Two modes:
    - [`Full] enumerates every computation (every interleaving);
    - [`Canonical] enumerates one representative per [\[D\]]-equivalence
      class — the lexicographically least linearization of the induced
      event partial order. Since predicates are required to be
      interleaving-invariant ([x \[D\] y ⇒ b at x = b at y], §4.1) and
      [x \[P\] y] depends only on projections, evaluating knowledge over
      canonical representatives is exact while the universe is usually
      exponentially smaller (ablation P2 in DESIGN.md).

    A universe indexes its computations [0 .. size-1] and precomputes,
    per process, the partition of indices by local computation; this
    is what makes [knows] evaluation linear in the universe size. *)

type mode = [ `Full | `Canonical ]

type budget = { max_states : int option; max_seconds : float option }
(** Resource ceiling for {!enumerate}. Fault transformers multiply
    branching, so an unbounded enumeration of a fault-blown state space
    can exhaust memory or wall-clock; a budget turns that failure mode
    into graceful degradation — a valid, prefix-closed universe plus a
    {!status} saying it is incomplete. *)

val budget : ?max_states:int -> ?max_seconds:float -> unit -> budget
(** Smart constructor. Raises [Invalid_argument] on [max_states < 1] or
    [max_seconds <= 0]. Omitted fields are unlimited. *)

val no_budget : budget

type trunc_reason = Max_states of int | Max_seconds of float

type status = Complete | Truncated of trunc_reason

val reason_to_string : trunc_reason -> string

type t

val enumerate :
  ?mode:mode ->
  ?budget:budget ->
  ?reduce:Reduction.t ->
  Spec.t ->
  depth:int ->
  t
(** [enumerate spec ~depth] explores breadth-first from the empty
    computation. Default mode is [`Canonical].

    Every mode and reduction expands through one path: each frontier
    computation carries its enabled sets ({!Reduction.Enabled}) and, in
    [`Canonical] mode without symmetry, an incremental canonicity
    context ({!Reduction.Canon}) from parent to child, so a step and a
    canonicity test cost O(n) in the number of processes rather than
    O(length) in the trace. Only the frontier holds that state; stored
    computations keep their trace and class ids.

    [reduce] (default {!Reduction.none}) applies the reduction layer
    (DESIGN.md §10); requires [`Canonical] mode. With a symmetry group
    the universe stores one representative per {e orbit} of
    [\[D\]]-classes: {!find} resolves any computation to its orbit's
    representative, knowledge/CK/temporal operators quantify over the
    orbit expansion automatically, and plain {!Prop.extent} ranges over
    representatives only. Plain {!Reduction.por} gives the same universe
    as [none]; with an attached independence relation it prunes.

    [budget] (default {!no_budget}) bounds the enumeration. When a
    ceiling is hit the BFS stops cleanly and the universe carries
    [Truncated reason] as its {!status}; the stored computations are
    still prefix-closed (children are only kept after their parent), so
    every query below remains sound — it just quantifies over fewer
    computations than the depth bound implies. [max_states] truncation
    is deterministic: the universe is the first [max_states]
    computations in discovery order. [max_seconds] bounds the CPU time
    ([Sys.time]) of the process, not wall-clock time; it is checked
    between parent expansions, so where it cuts depends on the speed of
    the machine. *)

val spec : t -> Spec.t
val mode : t -> mode
val depth : t -> int

val reduction : t -> Reduction.t
val symmetry : t -> Symmetry.group option
(** The group the universe was reduced under, if any. *)

val status : t -> status
(** [Complete] unless a {!budget} ceiling stopped the enumeration. A
    truncated universe underapproximates: [knows]/CK verdicts computed
    on it are relative to the explored prefix of the state space. *)

val size : t -> int

val comp : t -> int -> Trace.t
(** [comp u i] is computation number [i]. *)

val sample : t -> choose:(int -> int) -> Trace.t
(** [sample u ~choose] draws one stored computation: [choose k] must
    return an index in [\[0, k)] where [k = size u]. With a uniform
    [choose] this samples the stored computations uniformly — the hook
    the Monte Carlo layer uses for small-universe resampling. Raises
    [Invalid_argument] on an empty universe or an out-of-range
    choice. *)

val index : t -> Trace.t -> int option
(** Exact lookup of a trace (as stored — canonical form in
    [`Canonical] mode). The trace index behind it is built on the first
    lookup ({!index}, {!find} and what calls them, such as temporal
    successors), so universes that are only counted or asked about
    knowledge never pay for it. *)

val find : t -> Trace.t -> int option
(** Like {!index} but canonicalizes first in [`Canonical] mode, so any
    valid interleaving of a stored class is found. On a
    symmetry-reduced universe the lookup goes through the orbit key, so
    any interleaving of any permuted image of a stored class is found. *)

val find_orbit : t -> Trace.t -> (int * Symmetry.perm) option
(** [find_orbit u z = Some (i, ρ)]: [z] is interleaving-equivalent to
    [ρ · comp u i]. On an unreduced universe [ρ] is the identity and
    this is {!find}. This is the bridge that makes exact evaluation of
    arbitrary (even asymmetric) predicates possible on a reduced
    universe: evaluate at the concrete computation [ρ · comp u i]. *)

val find_exn : t -> Trace.t -> int
(** @raise Not_found when the trace's class is outside the universe
    (e.g. longer than [depth]). *)

val canon : t -> Trace.t -> Trace.t
(** [canon u z] is the canonical (lexicographically least) linearization
    of [z]'s event partial order. Identity in [`Full] mode semantics:
    still computes the canonical form, callers in full mode rarely need
    it. *)

val iter : (int -> Trace.t -> unit) -> t -> unit
val fold : (int -> Trace.t -> 'a -> 'a) -> t -> 'a -> 'a

val class_ids : t -> Pid.t -> int array
(** [class_ids u p] assigns to each computation index the id of its
    [\[p\]]-class: [x \[p\] y ⟺ ids.(ix) = ids.(iy)]. Ids are numbered
    in first-occurrence order from 0, so the id at index [i] is at
    most [i]. *)

val pset_class_ids : t -> Pset.t -> int array
(** Same for a process set [P] (intersection of the per-process
    partitions), numbered in first-occurrence order; memoized per set.
    For a single process it is {!class_ids} itself, which the interning
    trie already numbers that way. For the empty set all computations
    share class 0, matching [x \[{}\] y] for all x, y. *)

val class_members : t -> Pset.t -> int -> Bitset.t
(** [class_members u ps i] is the set of indices [\[P\]]-equivalent to
    [i] (always contains [i]). *)

val classes : t -> Pset.t -> Bitset.t array
(** All [\[P\]]-classes, indexed by class id; memoized. *)

val prefixes_of : t -> int -> int list
(** Indices of all stored computations that are prefixes of computation
    [i] (in [`Canonical] mode: whose class representative is a prefix). *)

val serialize : t -> (string, string) result
(** Compact binary body of the universe, written in one pass over the
    computations. A universe is a prefix-closed tree in discovery order,
    so computation [i] is stored as its parent's index (a varint delta
    from the previous record's parent — parents never decrease) plus an
    id into an event table that lists each distinct event once; strings
    (payloads, tags) go through a table of their own. A record is
    typically two bytes. The spec itself is {e not} stored; pair the
    body with a cache key that pins down (protocol, params, depth,
    faults, reduce, mode) and hand the same spec back to
    {!deserialize}. [Error] for symmetry-reduced universes, whose orbit
    tables have no serialized form. The body carries no framing —
    version stamp, key and checksum belong to the snapshot container
    layered on top (DESIGN.md §14), whose magic must change whenever
    this layout does. *)

val deserialize : Spec.t -> string -> (t, string) result
(** Rebuild a universe from a {!serialize} body, replaying the stored
    events through the same class-id interning trie in the same
    discovery order, so [class_ids], [find] and every knowledge query
    answer bit-identically to the originally enumerated universe.

    Every read is bounds-checked and cross-validated, at O(1) per
    computation except the in-flight check of a receive, which scans
    the parent trace without allocating. Each event-table entry is
    checked once (kind tag, pid and peer below [n], string id in range,
    no repeated entry) and its [Event.t] is shared by every trace that
    ends in it. Each record is checked against its parent: the parent
    precedes the child and does not decrease, the event id is in range,
    the child is no longer than the depth, [lseq] and a send's [seq]
    match the parent's projection (tracked per interned class id),
    and a receive consumes a message in flight. Finally the deepest
    computation must satisfy [Spec.valid]. Any violation — truncation,
    bit flips, a body for a different spec — yields [Error], never a
    wrong universe. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: size, depth, mode. *)
