(** Truncated exponential backoff.

    Under simulation a backoff burns scheduling steps (simulated time);
    under real domains it calls [Domain.cpu_relax]. *)

type t

val create : ?min:int -> ?max:int -> unit -> t
val reset_instances : unit -> unit
(** Restart the process-wide instance counter that seeds each backoff's
    jitter.  A run that starts from a reset counter creates the same
    backoff sequence whatever ran before it in the process.  Call between
    runs only, while no fiber is creating backoffs. *)

val once : t -> unit
val reset : t -> unit
