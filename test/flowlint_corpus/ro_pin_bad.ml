(* Planted violations: the wait-free snapshot-read protocol with the
   epoch pin missing or retired too early — the version walk then runs
   with no published read era, so writers can cut away the versions
   under it (DESIGN.md §13).  Expected: unpinned-snapshot-load at each
   load outside a pin-dominated region. *)

(* no pin at all: the load walks a version chain unprotected *)
let read_bad inst addr =
  let v = snap_load inst (stable_of inst) addr in
  snap_unpin inst;
  v

(* pin on one arm only: the fall-through arm reaches the load unpinned *)
let read_branch_bad inst cond addr =
  (if cond then ignore (snap_pin inst));
  snap_load inst 0 addr

(* use-after-unpin: the second load runs after the era is retired *)
let read_after_unpin_bad inst addr =
  let e = snap_pin inst in
  let a = snap_resolve inst e addr in
  snap_unpin inst;
  a + snap_resolve inst e (addr + 1)

(* control: pin / load / unpin is the legal shape and stays silent,
   including resolves inside a bounded loop under the pin *)
let read_ok inst n =
  let e = snap_pin inst in
  let s = ref 0 in
  for a = 0 to n - 1 do
    s := !s + snap_load inst e a
  done;
  snap_unpin inst;
  !s

(* control: a caller-held pin is justified at the site *)
let resolve_ok inst e addr =
  (* flowlint: ok unpinned-snapshot-load the cross-shard driver pins every shard before calling this resolver *)
  snap_load inst e addr
