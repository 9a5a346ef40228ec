(** Predicates on system computations (§4.1).

    A predicate assigns a truth value to every computation. The paper
    requires predicates to be interleaving-invariant:
    [x \[D\] y ⇒ (b at x = b at y)] — values depend on the component
    processes' computations, not the linear order of independent events.
    {!respects_interleaving} checks this on a universe, and every
    combinator preserves it.

    Predicates carry a name so that knowledge formulas print readably
    (e.g. ["p0 knows ¬(p1 knows token)"]).

    A predicate also carries the structure {!extent} walks. A {!local}
    leaf reads one process's projection only, so by §4.2 fact 1 it is
    constant on each [\[p\]]-class and {!extent} evaluates it once per
    class; an {!of_extent} leaf is copied on its own universe; the
    boolean combinators combine their operands' extents word by word.
    Only {!make} predicates are opaque: evaluated once per stored
    computation, which is also the reference the structured path is
    tested against. *)

type t

val make : string -> (Trace.t -> bool) -> t
(** [make name f] is the opaque predicate [f]: nothing is assumed about
    what [f] reads. *)

val local : Pid.t -> string -> (Event.t list -> bool) -> t
(** [local p name f] holds at [x] iff [f (x|p)]: [f] sees only [p]'s
    projection, so the predicate is local to [p] by construction (like
    {!Spec.rule}). *)

val rename : string -> t -> t
(** The same predicate, structure included, under another name. *)

val structured : t -> bool
(** [false] exactly for opaque predicates: {!make}, and combinations
    of opaque operands only. *)

val name : t -> string
val eval : t -> Trace.t -> bool
(** [eval b x] is the paper's "b at x". *)

val holds : t -> Trace.t -> bool
(** Alias of {!eval}. *)

val tt : t
(** The constant [true] predicate. *)

val ff : t
(** The constant [false] predicate. *)

val const : bool -> t

(** The combinators keep the structure when any operand has it; an
    opaque operand among structured ones is evaluated per computation
    on its own. *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val implies : t -> t -> t
val iff : t -> t -> t
val conj : t list -> t
val disj : t list -> t

val local_event_count : Pid.t -> (int -> bool) -> string -> t
(** [local_event_count p f name] holds at [x] iff [f (|x|_p)] — a
    {!local} predicate on [p]. *)

val extent : Universe.t -> t -> Bitset.t
(** [extent u b] is the set of universe indices where [b] holds —
    the extensional form used by the knowledge engine. Always equal to
    [Bitset.of_pred (Universe.size u) (fun i -> eval b (Universe.comp u i))];
    what differs is the work:
    - a {!local} leaf on [p] is called once per distinct id of
      [Universe.class_ids u p], on the first member of that class (a
      pid outside the universe's spec falls back to per computation);
    - an {!of_extent} leaf on [u] itself is a copy of its set; on any
      other universe it is evaluated per computation;
    - an opaque predicate is called once per stored computation, in
      index order.

    The [prop.extent.evals] counter adds up the predicate calls. *)

val of_extent : Universe.t -> string -> Bitset.t -> t
(** [of_extent u name s] is the predicate holding exactly on [s].
    Evaluating it at a computation outside [u] raises [Not_found];
    evaluating at any interleaving of a stored class works ([find]).
    This is how [knows] results stay first-class predicates; its
    {!extent} on [u] needs no lookup. *)

val respects_interleaving : Universe.t -> t -> bool
(** Checks [x \[D\] y ⇒ b at x = b at y] over all pairs in [u]
    (meaningful on [`Full] universes; trivially true on canonical
    ones). *)

val is_constant : Universe.t -> t -> bool
(** The paper's "b is a constant": same value at every computation. *)

val pp : Format.formatter -> t -> unit
