(* A TM wrapper that records a span around every call of the wrapped
   signature and passes the call through unchanged.  It adds no
   scheduling step, so a traced simulated run follows the same schedule
   as the untraced one. *)

module Make
    (L : sig
      val level : Trace.level
    end)
    (T : Tm.Tm_intf.S) : Tm.Tm_intf.S with type t = T.t = struct
  type t = T.t
  type tx = { tx : T.tx; ro : bool }

  let name = T.name
  let lv = L.level

  let closure kind ~ro f =
    let owner = Runtime.Sched.self () in
    fun tx ->
      Trace.enter_closure kind ~owner;
      match f { tx; ro } with
      | v ->
          Trace.leave ();
          v
      | exception e ->
          Trace.leave ();
          raise e

  let update_tx t f =
    Trace.span lv.update_tx (fun () ->
        T.update_tx t (closure lv.closure ~ro:false f))

  let read_tx t f =
    Trace.span lv.read_tx (fun () ->
        T.read_tx t (closure lv.read_closure ~ro:true f))

  let load tx a =
    Trace.span
      (if tx.ro then lv.load_read else lv.load_update)
      (fun () -> T.load tx.tx a)

  let store tx a v = Trace.span lv.store (fun () -> T.store tx.tx a v)
  let alloc tx n = Trace.span lv.alloc (fun () -> T.alloc tx.tx n)
  let free tx a = Trace.span lv.free (fun () -> T.free tx.tx a)
  let root = T.root
  let num_roots = T.num_roots
  let region = T.region
end

let snapshot_ops (s : 'a Tm.Tm_intf.snapshot_ops) : 'a Tm.Tm_intf.snapshot_ops =
  {
    snap_pin = (fun t -> Trace.span Trace.Snap_pin (fun () -> s.snap_pin t));
    snap_load =
      (fun t e a -> Trace.span Trace.Snap_load (fun () -> s.snap_load t e a));
    snap_unpin =
      (fun t -> Trace.span Trace.Snap_unpin (fun () -> s.snap_unpin t));
  }
