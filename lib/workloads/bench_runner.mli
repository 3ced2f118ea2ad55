(** Fixed-duration benchmark execution under the deterministic simulator.

    A benchmark point runs [threads] worker fibers on a simulated machine
    of [cores] CPUs for [rounds] rounds of simulated time; throughput is
    completed operations per 1000 rounds ("kops/krounds"), latency is the
    per-operation round span.  Points are exactly reproducible from the
    seed: each run resets {!Runtime.Backoff}'s instance counter, so a
    point does not depend on the points run before it in the process.  [threads > cores] is over-subscription, as in the paper's
    oversubscribed runs. *)

type spec = {
  threads : int;
  cores : int;
  rounds : int;
  seed : int;
  policy : Runtime.Sched.policy;
}

val default : ?threads:int -> ?cores:int -> ?rounds:int -> ?seed:int -> unit -> spec
(** Defaults: 1 thread, 8 cores, 30_000 rounds, seed 42, round-robin. *)

val throughput : spec -> (tid:int -> rng:Runtime.Rng.t -> unit) -> float
(** [throughput spec worker]: each call of [worker] is one operation;
    result in ops per 1000 rounds. *)

val latency : spec -> (tid:int -> rng:Runtime.Rng.t -> unit) -> Runtime.Histogram.t
(** Per-operation latency (rounds) across all threads. *)

val run_ops : spec -> (tid:int -> rng:Runtime.Rng.t -> unit) -> int
(** Raw completed-operation count. *)
