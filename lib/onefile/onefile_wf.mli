(** OneFile with bounded wait-free progress (paper §III-E).

    Threads publish each mutative transaction as a closure in a shared
    operations array; an updater aggregates every published-but-uncommitted
    operation into a single write-set, so after at most two commits
    following publication (one more when the publisher took over a dead
    process's thread slot; DESIGN.md §2 item 8) the operation's result is
    guaranteed to be in the results array.  Read-only transactions run on the wait-free snapshot
    path (DESIGN.md §13) and never need the paper's fallback to
    publication after failed optimistic attempts.  Closure
    descriptors are reclaimed with hazard eras keyed on transaction
    sequence numbers (§IV-B). *)

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
(** Same knobs as {!Onefile_lf.create}: [region] adopts an existing region
    (e.g. a shard view), [instance] prefixes this instance's telemetry
    keys. *)

val linear_threshold : t -> int
(** The effective write-set linear/hash switchover (default 40). *)

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
(** Null recovery. Published closures are transient and do not survive a
    crash; committed operations already have durable results. *)

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
    counters plus the wait-free machinery ("wf.published",
    "wf.aggregated"), the "tx.latency" span, the region's
    Pstats pull source ("pmem.*") and the hazard-era reclaimer ("he.*").
    While detached (the default) every bump is a no-op. *)

val detach_telemetry : t -> unit
val telemetry : t -> Runtime.Telemetry.t option
