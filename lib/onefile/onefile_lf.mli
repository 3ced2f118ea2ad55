(** OneFile with lock-free progress (paper §III-B).

    A redo-log, word-based TM with no read-set.  Update transactions are
    serialized on [curTx]; losers of the commit CAS help apply the winner's
    write-set with sequence-guarded DCASes, so some thread always makes
    progress.  Over a [Persistent] region this is OneFile-LF PTM (durable
    linearizable, null recovery); over a [Volatile] region it is the STM —
    "the algorithm for the STM is similar, minus the pwbs". *)

include Tm.Tm_intf.S with type t = Core0.t and type tx = Core0.tx

val create :
  ?mode:Pmem.Region.mode ->
  ?size:int ->
  ?region:Pmem.Region.t ->
  ?instance:string ->
  ?max_threads:int ->
  ?ws_cap:int ->
  ?num_roots:int ->
  ?linear_threshold:int ->
  unit ->
  t
(** Defaults: persistent, [size = 2^18] cells, 64 threads, write-sets of up
    to 2048 entries, 8 roots, write-set linear/hash switchover at 40
    entries ([linear_threshold], the paper's hybrid lookup knob).
    [region] adopts an existing region (e.g. a shard view from
    {!Pmem.Region.partition}) instead of allocating one; [instance]
    prefixes this instance's telemetry keys so several instances share a
    registry without colliding (see {!Core0.create}). *)

val linear_threshold : t -> int
(** The effective write-set switchover this instance was created with. *)

val instance : t -> string
(** The telemetry-prefix instance id ([""] by default). *)

val snapshot_ops : t Tm.Tm_intf.snapshot_ops
(** Wait-free snapshot-read primitives (epoch pin / load-at-epoch /
    unpin), consumed by {!Tm.Tm_shard} for cross-shard snapshot reads. *)

val faults : t -> Core0.faults
(** Test-only fault-injection flags (see {!Core0.faults}); exposed here so
    harnesses outside [lib/onefile] can plant bugs without referencing
    [Core0] directly (the tm_lint layering rule). *)

val recover : t -> unit
(** Null recovery: after {!Pmem.Region.crash}, complete (idempotently) the
    apply phase of the last committed transaction, if still open. *)

val allocated_cells : t -> int
(** Cells currently held by live blocks, computed from the quiescent
    allocator state (testing/diagnostics; do not call concurrently). *)

val curtx_info : t -> int * int * bool
(** Debug peek at the commit state: (sequence, tid, request-still-open).
    Step-free; usable from a scheduler [on_round] hook. *)

val sanitize : ?mode:Check.Tmcheck.mode -> t -> Check.Tmcheck.t
(** Attach the {!Check.Tmcheck} opacity/durability sanitizer to this
    instance (simulation-only; attach while quiescent).  Returns the
    checker so callers can inspect {!Check.Tmcheck.violations}. *)

val desanitize : t -> unit
(** Detach the sanitizer and region observer. *)

val checker : t -> Check.Tmcheck.t option

val attach_telemetry : t -> Runtime.Telemetry.t -> unit
(** Wire this instance into a {!Runtime.Telemetry} registry: transaction
    counters ("tx.commits", "tx.aborts", "tx.helps", "log.recycles", …),
    the "tx.latency" span, the region's Pstats as a pull source
    ("pmem.*") and the hazard-era reclaimer ("he.*").  While detached
    (the default) every bump is a no-op. *)

val detach_telemetry : t -> unit
val telemetry : t -> Runtime.Telemetry.t option
