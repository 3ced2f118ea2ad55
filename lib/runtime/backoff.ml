(* Deterministic per-instance jitter: without it, round-robin lockstep can
   keep two contending transactions perfectly symmetric and livelock them
   (or starve a reader against a periodic writer) forever. *)
(* relaxed-ok: the instance counter only diversifies per-instance RNG
   seeds; its ordering is irrelevant to any schedule, so it must not
   consume scheduling steps. *)
(* mutable-ok: [cur] is private to the backing-off fiber. *)

let instances = Satomic.make 0

type t = { min : int; max : int; mutable cur : int; rng : Rng.t }

let create ?(min = 1) ?(max = 64) () =
  { min; max; cur = min; rng = Rng.create (1 + Satomic.fetch_and_add_relaxed instances 1) }

let reset_instances () = Satomic.set instances 0

let once t =
  let spins = 1 + Rng.int t.rng t.cur in
  for _ = 1 to spins do
    if Sched.in_fiber () then Sched.step_point () else Domain.cpu_relax ()
  done;
  if t.cur < t.max then t.cur <- t.cur * 2

let reset t = t.cur <- t.min
