(** Counter/span registry: the telemetry sink of a run.

    Components (the OneFile core, the reclaimers, the simulated NVM
    region) are instrumented with named monotonic counters and latency
    spans.  Each instrumented component holds a {!sink}; while no sink is
    attached, every {!tick}/{!observe} is a no-op costing one pointer load
    and branch, so telemetry-off runs pay nothing measurable (the measured
    delta is recorded in DESIGN.md §7).

    Counter names are dot-separated ("tx.commits", "pmem.pwb", …); the
    {!snapshot} merges direct counters with pull {e sources} — closures
    registered by components whose counts live elsewhere (e.g.
    {!Pmem.Pstats}) — summing duplicates, which makes one sink usable
    across many TM instances of a benchmark sweep.

    Simulation-only soundness: counters are plain mutable state bumped
    between scheduling points of the cooperative {!Sched} (or from
    sequential code) — the same confinement argument as [Pmem.Pstats].
    Do not use under real parallel domains. *)

type t

val create : ?span_cap:int -> unit -> t
(** [span_cap] bounds the exact samples kept per span (default [65536]);
    further samples land in an overflow tally that keeps count/mean/max
    exact while percentiles degrade to those of the first [span_cap]
    samples. *)

(** {1 Counters} *)

val incr : ?by:int -> t -> string -> unit
val get : t -> string -> int
(** [0] for a name never incremented.  Does not consult sources. *)

(** {1 Spans} *)

val sample : t -> string -> int -> unit
(** Record one latency sample (simulated rounds) under [name]. *)

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

val span_summary : t -> string -> summary
(** All-zero summary for an unknown span. *)

(** {1 Sources and snapshots} *)

val add_source : t -> (unit -> (string * int) list) -> unit
(** Register a pull source folded into every {!snapshot}.  Sources survive
    {!reset} (they read external state; reset that state separately). *)

type snapshot = { counters : (string * int) list; spans : (string * summary) list }
(** Both lists sorted by name; counters include all sources, duplicates
    summed. *)

val snapshot : t -> snapshot
val reset : t -> unit
(** Drop all counters and spans (sources stay registered). *)

val clear_sources : t -> unit
(** Drop every registered pull source.  A registry reused across a
    sequence of short-lived instrumented instances — one TM per explored
    schedule, say — must call [reset] {e and} [clear_sources] between
    executions, then re-attach the fresh instance; otherwise the sources
    of dead instances keep leaking their counters into later snapshots. *)

val pp_snapshot : Format.formatter -> snapshot -> unit

(** {1 Optional-sink plumbing}

    The pattern for instrumenting a component: hold a [sink] (initially
    empty), pre-resolve a {!handle}/{!span_handle} per name at creation,
    fire it with {!tick}/{!observe} at the interesting points, and let
    users {!attach} a registry.  Detached sinks make every fire a
    no-op. *)

type sink = t option ref

val sink : unit -> sink
(** A fresh detached sink. *)

val attach : sink -> t -> unit
val detach : sink -> unit

(** {1 Pre-resolved handles}

    A handle binds a sink and a counter/span name once, at component
    creation, and caches the resolved registry cell.  Firing a handle is
    one sink load, one physical-equality check on the attached registry
    (plus its reset generation) and one in-place increment — no string
    hashing or allocation on the hot path.  Handles stay correct across
    {!attach}/{!detach}/{!reset}: any of those invalidates the cache and
    the next fire re-resolves. *)

type handle
(** A pre-resolved counter. *)

val counter : sink -> string -> handle
(** [counter s name] is a handle for counter [name] of whatever registry
    is attached to [s] at fire time.  Creation performs no resolution. *)

val tick : ?by:int -> handle -> unit
(** Bump the counter ([by] defaults to 1); no-op while detached. *)

type span_handle
(** A pre-resolved latency span. *)

val span : sink -> string -> span_handle
val observe : span_handle -> int -> unit
(** Record one sample under the span; no-op while detached. *)
