(** In-memory span recorder of the benchmark's traced runs.

    Spans are opened and closed around the benchmark's calls into each
    layer's public functions (see {!Traced}).  Every thread — a simulated
    fiber or a real domain, keyed by [Runtime.Sched.self ()] — keeps its
    own stack of open spans, so no state is shared between domains.

    Recording costs no simulated time: it reads [Sched.now] and
    [Sched.self], neither of which is a scheduling step, and never touches
    a [Satomic] cell.

    A span closing folds into per-kind aggregates (count, total duration,
    self time = duration minus the child spans it covered on the same
    thread); the first 1024 closed spans of each thread are also kept
    verbatim and can be written out with {!write_tsv} when the run ends.
    Spans still open at the end — fibers abandoned at the round cap — are
    dropped and counted by {!finish}. *)

type kind =
  | Hs_op  (** one [Hash_set] call made by the benchmark *)
  | Update_tx  (** [update_tx] of the OneFile instance (Core0) *)
  | Read_tx  (** [read_tx] of the OneFile instance *)
  | Closure  (** user closure of an update transaction *)
  | Read_closure  (** user closure of a read-only transaction *)
  | Load_update  (** interposed [load] inside an update transaction *)
  | Load_read  (** interposed [load] inside a read-only transaction *)
  | Store
  | Alloc
  | Free
  | R_update  (** [Tm_shard] router [update_tx] *)
  | R_read
  | R_closure
  | R_load
  | R_store
  | R_alloc
  | R_free
  | Snap_pin  (** shard snapshot primitives called by the router *)
  | Snap_load
  | Snap_unpin
  | Split
  | Merge

val all : kind list
val name : kind -> string

type level = {
  update_tx : kind;
  read_tx : kind;
  closure : kind;
  read_closure : kind;
  load_update : kind;
  load_read : kind;
  store : kind;
  alloc : kind;
  free : kind;
}
(** The span kinds one {!Traced} instantiation records. *)

val tm_level : level
val router_level : level

type clock = Sim  (** [Sched.now], simulated rounds *) | Wall  (** ns *)

type t

val create : clock -> t

val start : t -> unit
(** Make [t] the active recorder.  Set before the threads start. *)

val stop : unit -> unit
(** Deactivate recording; spans entered afterwards are not recorded. *)

val enter : kind -> unit
val enter_closure : kind -> owner:int -> unit
(** A closure span: [owner] is the tid that issued the transaction; a
    closure executed by another thread (a helper) counts as foreign. *)

val leave : unit -> unit

val span : kind -> (unit -> 'a) -> 'a
(** [span k f] runs [f] inside a span of kind [k]; the span closes on
    return and on exception. *)

val finish : t -> unit
(** Drop (and count) every span left open. *)

type agg = { count : int; total : int; self : int }

val agg : t -> kind -> agg
(** Aggregate over all threads: closed spans, their summed durations and
    summed self times, in the recorder's clock unit. *)

val foreign : t -> kind -> int
(** Spans of this kind opened by a thread other than their owner — closures
    run by a helper (the wait-free aggregator, the batch leader). *)

val dropped : t -> int

val write_tsv : t -> string -> unit
(** Write the kept spans, one per line:
    [tid id parent op name start end owner] ([parent] is [-1] for a
    root span). *)
