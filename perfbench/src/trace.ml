type kind =
  | Hs_op
  | Update_tx
  | Read_tx
  | Closure
  | Read_closure
  | Load_update
  | Load_read
  | Store
  | Alloc
  | Free
  | R_update
  | R_read
  | R_closure
  | R_load
  | R_store
  | R_alloc
  | R_free
  | Snap_pin
  | Snap_load
  | Snap_unpin
  | Split
  | Merge

let all =
  [ Hs_op; Update_tx; Read_tx; Closure; Read_closure; Load_update; Load_read;
    Store; Alloc; Free; R_update; R_read; R_closure; R_load; R_store; R_alloc;
    R_free; Snap_pin; Snap_load; Snap_unpin; Split; Merge ]

let index = function
  | Hs_op -> 0
  | Update_tx -> 1
  | Read_tx -> 2
  | Closure -> 3
  | Read_closure -> 4
  | Load_update -> 5
  | Load_read -> 6
  | Store -> 7
  | Alloc -> 8
  | Free -> 9
  | R_update -> 10
  | R_read -> 11
  | R_closure -> 12
  | R_load -> 13
  | R_store -> 14
  | R_alloc -> 15
  | R_free -> 16
  | Snap_pin -> 17
  | Snap_load -> 18
  | Snap_unpin -> 19
  | Split -> 20
  | Merge -> 21

let nkinds = 22

let name = function
  | Hs_op -> "hash_set.op"
  | Update_tx -> "tm.update_tx"
  | Read_tx -> "tm.read_tx"
  | Closure -> "tm.closure"
  | Read_closure -> "tm.read_closure"
  | Load_update -> "tm.load"
  | Load_read -> "tm.snapshot_load"
  | Store -> "tm.store"
  | Alloc -> "tm_alloc.alloc"
  | Free -> "tm_alloc.free"
  | R_update -> "router.update_tx"
  | R_read -> "router.read_tx"
  | R_closure -> "router.closure"
  | R_load -> "router.load"
  | R_store -> "router.store"
  | R_alloc -> "router.alloc"
  | R_free -> "router.free"
  | Snap_pin -> "snapshot_ops.snap_pin"
  | Snap_load -> "snapshot_ops.snap_load"
  | Snap_unpin -> "snapshot_ops.snap_unpin"
  | Split -> "router.split"
  | Merge -> "router.merge"

let kind_of_index = Array.of_list all

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

let tm_level =
  { update_tx = Update_tx; read_tx = Read_tx; closure = Closure;
    read_closure = Read_closure; load_update = Load_update;
    load_read = Load_read; store = Store; alloc = Alloc; free = Free }

let router_level =
  { update_tx = R_update; read_tx = R_read; closure = R_closure;
    read_closure = R_closure; load_update = R_load; load_read = R_load;
    store = R_store; alloc = R_alloc; free = R_free }

type clock = Sim | Wall

(* mutable-ok: a per_tid record is only ever touched by the thread whose
   tid indexes it (one fiber, or one domain), so domains share nothing. *)
type frame = {
  kind : int;
  start : int;
  id : int;
  parent : int;
  op : int;
  owner : int;
  mutable covered : int;  (* summed durations of closed children *)
}

let log_cap = 1024
let log_fields = 7

type per_tid = {
  mutable stack : frame list;
  mutable next_op : int;
  mutable next_id : int;
  count : int array;
  total : int array;
  self : int array;
  foreign : int array;  (* spans run by a thread other than their owner *)
  mutable logged : int;
  log : int array;  (* log_cap x [id; parent; op; kind; start; end; owner] *)
}

let max_tids = 32

type t = { clock : clock; tids : per_tid array; mutable dropped : int }

let create clock =
  {
    clock;
    tids =
      Array.init max_tids (fun _ ->
          {
            stack = [];
            next_op = 0;
            next_id = 0;
            count = Array.make nkinds 0;
            total = Array.make nkinds 0;
            self = Array.make nkinds 0;
            foreign = Array.make nkinds 0;
            logged = 0;
            log = Array.make (log_cap * log_fields) 0;
          });
    dropped = 0;
  }

let active : t option ref = ref None
let start t = active := Some t
let stop () = active := None

let now t =
  match t.clock with
  | Sim -> Runtime.Sched.now ()
  | Wall -> Int64.to_int (Monotonic_clock.now ())

(* Ids are per thread; the tid in the high bits makes them global. *)
let gid tid n = (tid lsl 40) lor n

let push t k ~owner =
  let tid = Runtime.Sched.self () in
  let s = t.tids.(tid) in
  let parent, op =
    match s.stack with
    | f :: _ -> (f.id, f.op)
    | [] ->
        s.next_op <- s.next_op + 1;
        (-1, gid tid s.next_op)
  in
  s.next_id <- s.next_id + 1;
  if owner <> tid then s.foreign.(index k) <- s.foreign.(index k) + 1;
  s.stack <-
    { kind = index k; start = now t; id = gid tid s.next_id; parent; op; owner;
      covered = 0 }
    :: s.stack

let enter k =
  match !active with
  | None -> ()
  | Some t -> push t k ~owner:(Runtime.Sched.self ())

let enter_closure k ~owner =
  match !active with None -> () | Some t -> push t k ~owner

let leave () =
  match !active with
  | None -> ()
  | Some t -> (
      let s = t.tids.(Runtime.Sched.self ()) in
      match s.stack with
      | [] -> ()
      | f :: rest ->
          let e = now t in
          let d = e - f.start in
          s.count.(f.kind) <- s.count.(f.kind) + 1;
          s.total.(f.kind) <- s.total.(f.kind) + d;
          s.self.(f.kind) <- s.self.(f.kind) + d - f.covered;
          (match rest with p :: _ -> p.covered <- p.covered + d | [] -> ());
          s.stack <- rest;
          if s.logged < log_cap then begin
            let b = s.logged * log_fields in
            s.log.(b) <- f.id;
            s.log.(b + 1) <- f.parent;
            s.log.(b + 2) <- f.op;
            s.log.(b + 3) <- f.kind;
            s.log.(b + 4) <- f.start;
            s.log.(b + 5) <- e;
            s.log.(b + 6) <- f.owner;
            s.logged <- s.logged + 1
          end)

let span k f =
  enter k;
  match f () with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

let finish t =
  Array.iter
    (fun s ->
      t.dropped <- t.dropped + List.length s.stack;
      s.stack <- [])
    t.tids

type agg = { count : int; total : int; self : int }

let agg t k =
  let i = index k in
  Array.fold_left
    (fun (a : agg) (s : per_tid) ->
      { count = a.count + s.count.(i); total = a.total + s.total.(i);
        self = a.self + s.self.(i) })
    { count = 0; total = 0; self = 0 }
    t.tids

let foreign t k =
  let i = index k in
  Array.fold_left (fun a s -> a + s.foreign.(i)) 0 t.tids

let dropped t = t.dropped

let write_tsv t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "tid\tid\tparent\top\tname\tstart\tend\towner\n";
  Array.iteri
    (fun tid s ->
      for j = 0 to s.logged - 1 do
        let b = j * log_fields in
        Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n" tid s.log.(b)
          s.log.(b + 1) s.log.(b + 2)
          (name kind_of_index.(s.log.(b + 3)))
          s.log.(b + 4) s.log.(b + 5) s.log.(b + 6)
      done)
    t.tids
