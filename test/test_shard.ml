(* Cross-shard router tests: structures over Shard.Make unchanged,
   single-shard parallelism, cross-shard transfer conservation under the
   scheduler (with a concurrent consistency observer), allocation
   accounting across shards, and whole-device crash + recovery. *)

open Runtime
module Region = Pmem.Region
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf
module Sh_wf = Tm.Tm_shard.Make (Wf)
module Sh_lf = Tm.Tm_shard.Make (Lf)
module E = Workloads.Explorer
module Proggen = Workloads.Proggen

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk_sharded ?(mode = Region.Persistent) ?(n = 4) ?(span = 4096) () =
  let device = Region.create ~mode (n * span) in
  let views = Region.partition device (List.init n (fun _ -> span)) in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Wf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ~num_roots:8 ())
         views)
  in
  (device, Sh_wf.make ~max_threads:8 ~ro_snapshot:Wf.snapshot_ops shards)

let accounts = 8

let init_accounts tm v =
  for i = 0 to accounts - 1 do
    ignore
      (Sh_wf.update_tx tm (fun tx ->
           Sh_wf.store tx (Sh_wf.root tm i) v;
           0))
  done

let total tm =
  Sh_wf.read_tx tm (fun tx ->
      let s = ref 0 in
      for i = 0 to accounts - 1 do
        s := !s + Sh_wf.load tx (Sh_wf.root tm i)
      done;
      !s)

let transfer tm a b d =
  ignore
    (Sh_wf.update_tx tm (fun tx ->
         let ra = Sh_wf.root tm a and rb = Sh_wf.root tm b in
         let va = Sh_wf.load tx ra in
         let vb = Sh_wf.load tx rb in
         Sh_wf.store tx ra (va - d);
         Sh_wf.store tx rb (vb + d);
         0))

(* ------------------------------------------------------------------ *)

let test_structures_over_router () =
  let _dev, tm = mk_sharded () in
  let module L = Structures.Ll_set.Make (Sh_wf) in
  let s = L.create tm ~root:0 in
  for i = 0 to 20 do
    ignore (L.add s i)
  done;
  check int "cardinal" 21 (L.cardinal s);
  check bool "contains" true (L.contains s 13);
  ignore (L.remove s 13);
  check bool "removed" false (L.contains s 13);
  check bool "sorted" true (L.check_sorted s);
  let module Q = Structures.Tm_queue.Make (Sh_wf) in
  let q = Q.create tm ~root:1 in
  for i = 1 to 10 do
    Q.enqueue q i
  done;
  let got = List.init 10 (fun _ -> Q.dequeue q) in
  check (Alcotest.list (Alcotest.option int)) "fifo"
    (List.init 10 (fun i -> Some (i + 1)))
    got

let test_single_shard_parallel () =
  let _dev, tm = mk_sharded () in
  init_accounts tm 0;
  (* worker w increments only account w: accounts 0..3 live on distinct
     shards, so all four workers commit wait-free in parallel *)
  let worker w () =
    for _ = 1 to 25 do
      ignore
        (Sh_wf.update_tx tm (fun tx ->
             let r = Sh_wf.root tm w in
             Sh_wf.store tx r (Sh_wf.load tx r + 1);
             0))
    done
  in
  ignore (Sched.run ~seed:11 (Array.init 4 (fun w () -> worker w ())));
  for w = 0 to 3 do
    let v =
      Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm w))
    in
    check int (Printf.sprintf "account %d" w) 25 v
  done;
  (* every shard committed its own transactions *)
  Array.iter
    (fun sh ->
      let st = Region.stats (Wf.region sh) in
      check bool "shard committed" true (st.Pmem.Pstats.commits > 0))
    (Sh_wf.shards tm)

let test_cross_transfer_conservation () =
  let _dev, tm = mk_sharded () in
  init_accounts tm 100;
  let worker w () =
    let rng = Rng.create (100 + w) in
    for _ = 1 to 20 do
      let a = Rng.int rng accounts and b = Rng.int rng accounts in
      if a <> b then transfer tm a b (1 + Rng.int rng 5)
    done
  in
  (* the observer snapshots all accounts mid-run: cross-shard read
     transactions must always see a conserved total *)
  let violations = ref 0 in
  let observer () =
    for _ = 1 to 8 do
      if total tm <> accounts * 100 then incr violations
    done
  in
  ignore
    (Sched.run ~seed:5
       [| (fun () -> worker 0 ()); (fun () -> worker 1 ()); observer |]);
  check int "observer saw conservation" 0 !violations;
  check int "total conserved" (accounts * 100) (total tm)

let test_cross_alloc_free () =
  let _dev, tm = mk_sharded () in
  init_accounts tm 100;
  let base = Array.map Wf.allocated_cells (Sh_wf.shards tm) in
  (* a cross-shard transaction that allocates: reads two shards, then
     allocates a 2-cell block and parks it in a root *)
  let p =
    Sh_wf.update_tx tm (fun tx ->
        let a = Sh_wf.load tx (Sh_wf.root tm 0) in
        let b = Sh_wf.load tx (Sh_wf.root tm 1) in
        let p = Sh_wf.alloc tx 2 in
        Sh_wf.store tx p (a + b);
        Sh_wf.store tx (Sh_wf.root tm 2) p;
        p)
  in
  check bool "allocated non-null" true (p <> 0);
  let v =
    Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.load tx (Sh_wf.root tm 2)))
  in
  check int "cross-allocated payload" 200 v;
  (* free it from another cross-shard transaction *)
  ignore
    (Sh_wf.update_tx tm (fun tx ->
         let q = Sh_wf.load tx (Sh_wf.root tm 2) in
         ignore (Sh_wf.load tx (Sh_wf.root tm 1));
         Sh_wf.free tx q;
         Sh_wf.store tx (Sh_wf.root tm 2) 0;
         0));
  Array.iteri
    (fun s sh ->
      check int
        (Printf.sprintf "shard %d allocation balance" s)
        base.(s) (Wf.allocated_cells sh))
    (Sh_wf.shards tm)

let test_crash_recovery () =
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 50;
  for i = 0 to 5 do
    transfer tm i ((i + 3) mod accounts) 7
  done;
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  check int "total survives crash" (accounts * 50) (total tm);
  (* the router keeps working after recovery *)
  transfer tm 0 5 3;
  check int "total after post-recovery transfer" (accounts * 50) (total tm)

(* Roll-back recovery: a cross-shard transaction that crashed after every
   shard prepared — write-ahead allocations logged in the pending lists,
   locks held, the commit record's contents written — but before the
   record's status word became durable must be discarded entirely.
   Recovery frees the pending allocations, clears the stale locks, never
   replays the uncommitted record, and the router stays usable.  The
   prepared state is fabricated through the shards' own public API at
   the control-block addresses the router published in its reserved root
   slot, so the test exercises the exact durable footprint a crash
   between the final prepare and the record commit leaves behind. *)

(* the router's control-block layout (shard-local addresses) *)
module L = Sh_wf.Layout

let rd sh a = Wf.read_tx sh (fun itx -> Wf.load itx a)

(* a batch's durable freeze of shard [s] *)
let freeze tm s =
  let sh = (Sh_wf.shards tm).(s) in
  ignore
    (Wf.update_tx sh (fun itx ->
         Wf.store itx (L.lock_cell tm s) L.frozen;
         0))

(* is shard [s] unfrozen: its freeze word back at its epoch? *)
let unfrozen tm s =
  let sh = (Sh_wf.shards tm).(s) in
  rd sh (L.lock_cell tm s) = rd sh (L.epoch_cell tm s)

let test_rollback_recovery () =
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let shards = Sh_wf.shards tm in
  let base = Array.map Wf.allocated_cells shards in
  for round = 1 to 3 do
    (* every shard prepared: exactly the durable footprint of [alloc]'s
       write-ahead transaction plus [ensure_locked] *)
    Array.iteri
      (fun s sh ->
        ignore
          (Wf.update_tx sh (fun itx ->
               let a = Wf.alloc itx 64 in
               Wf.store itx (L.pslot_cell tm s 0) a;
               Wf.store itx (L.pcount_cell tm s) 1;
               0));
        freeze tm s)
      shards;
    (* the commit record's contents are durable but its status word is
       not: a poison write that would zero account 0 if ever replayed *)
    let rb = L.rec_base tm in
    ignore
      (Wf.update_tx shards.(0) (fun itx ->
           Wf.store itx (rb + 1) (90 + round) (* id *);
           Wf.store itx (rb + 2) 0b11 (* both shards participate *);
           Wf.store itx (rb + 3) 1 (* one write... *);
           Wf.store itx (rb + 4) 0;
           Wf.store itx (rb + 5) (Sh_wf.root tm 0);
           Wf.store itx (rb + 6) 0 (* ...that zeroes account 0 *);
           0));
    Region.crash dev ();
    Sh_wf.recover ~shard_recover:Wf.recover tm;
    Array.iteri
      (fun s sh ->
        let pc = rd sh (L.pcount_cell tm s) in
        check bool (Printf.sprintf "round %d shard %d lock cleared" round s)
          true (unfrozen tm s);
        check int
          (Printf.sprintf "round %d shard %d pendings cleared" round s)
          0 pc;
        check int
          (Printf.sprintf "round %d shard %d allocation balance" round s)
          base.(s) (Wf.allocated_cells sh))
      shards
  done;
  check int "uncommitted record was never replayed" (accounts * 100) (total tm);
  (* the router keeps working, including fresh cross-shard allocations *)
  transfer tm 0 5 3;
  let p =
    Sh_wf.update_tx tm (fun tx ->
        ignore (Sh_wf.load tx (Sh_wf.root tm 0));
        ignore (Sh_wf.load tx (Sh_wf.root tm 1));
        let p = Sh_wf.alloc tx 2 in
        Sh_wf.store tx p 7;
        p)
  in
  check bool "post-recovery cross alloc" true (p <> 0);
  check int "total conserved after recovery" (accounts * 100) (total tm)

(* --- batched 2PC: batch-record recovery --------------------------- *)

(* Roll-forward: a batch whose ONE commit record became durable (status
   word written) but that crashed before any per-shard apply must be
   replayed into every participant as a unit: union writes applied, union
   frees executed, write-ahead allocations adopted (pending list cleared
   WITHOUT freeing), freezes lifted, and the record finalized. *)
let test_batch_roll_forward () =
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let shards = Sh_wf.shards tm in
  let sh0 = shards.(0) and sh1 = shards.(1) in
  let base0 = Wf.allocated_cells sh0 in
  (* a pre-batch block on shard 0 that the committed batch frees *)
  let fz =
    Wf.update_tx sh0 (fun itx ->
        let a = Wf.alloc itx 2 in
        Wf.store itx a 7;
        a)
  in
  (* one member's write-ahead allocation on shard 1, logged pending *)
  ignore
    (Wf.update_tx sh1 (fun itx ->
         let a = Wf.alloc itx 3 in
         Wf.store itx (L.pslot_cell tm 1 0) a;
         Wf.store itx (L.pcount_cell tm 1) 1;
         0));
  let base1 = Wf.allocated_cells sh1 in
  (* both shards frozen for the batch *)
  freeze tm 0;
  freeze tm 1;
  (* the COMMITTED record: a two-member union — three writes across both
     shards, one free — with its status word durable *)
  let rb = L.rec_base tm in
  let id = 600 in
  ignore
    (Wf.update_tx sh0 (fun itx ->
         Wf.store itx (rb + 1) id;
         Wf.store itx (rb + 2) 0b11;
         Wf.store itx (rb + 3) 3;
         Wf.store itx (rb + 4) 1;
         Wf.store itx (rb + 5) (Sh_wf.root tm 0);
         Wf.store itx (rb + 6) 41;
         Wf.store itx (rb + 7) (Sh_wf.root tm 1);
         Wf.store itx (rb + 8) 42;
         Wf.store itx (rb + 9) (Sh_wf.root tm 2);
         Wf.store itx (rb + 10) 43;
         Wf.store itx (rb + L.rec_frees_off tm) fz (* shard-0 global = local *);
         Wf.store itx rb 1;
         0));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  let v k = Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm k)) in
  check int "write on shard 0 replayed" 41 (v 0);
  check int "write on shard 1 replayed" 42 (v 1);
  check int "second shard-0 write replayed" 43 (v 2);
  check int "union free executed" base0 (Wf.allocated_cells sh0);
  check int "pending allocation adopted, not freed" base1
    (Wf.allocated_cells sh1);
  Array.iteri
    (fun s sh ->
      check bool (Printf.sprintf "shard %d unlocked" s) true (unfrozen tm s);
      check int (Printf.sprintf "shard %d pendings cleared" s) 0
        (rd sh (L.pcount_cell tm s));
      check int (Printf.sprintf "shard %d applied id" s) id
        (rd sh (L.applied_cell tm s)))
    shards;
  check int "record finalized" 2
    (Wf.read_tx sh0 (fun itx -> Wf.load itx rb));
  (* the router keeps working on top of the replayed state *)
  transfer tm 0 5 3;
  check int "post-recovery total" (126 + (5 * 100)) (total tm)

(* Roll-back, multi-member footprint: every shard carries TWO members'
   write-ahead allocations and the freeze, and the record's multi-member
   contents are durable — but its status word is not.  The whole batch
   must be discarded as a unit: every pending allocation freed, locks
   cleared, the poison record (which would zero two accounts and free a
   live block) never replayed. *)
let test_batch_rollback_multi () =
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let shards = Sh_wf.shards tm in
  let sh0 = shards.(0) in
  (* a live block the poison record's free list targets *)
  let live =
    Wf.update_tx sh0 (fun itx ->
        let a = Wf.alloc itx 2 in
        Wf.store itx a 1234;
        a)
  in
  let base = Array.map Wf.allocated_cells shards in
  Array.iteri
    (fun s sh ->
      ignore
        (Wf.update_tx sh (fun itx ->
             let a = Wf.alloc itx 16 in
             Wf.store itx (L.pslot_cell tm s 0) a;
             Wf.store itx (L.pcount_cell tm s) 1;
             0));
      ignore
        (Wf.update_tx sh (fun itx ->
             let b = Wf.alloc itx 8 in
             Wf.store itx (L.pslot_cell tm s 1) b;
             Wf.store itx (L.pcount_cell tm s) 2;
             0));
      freeze tm s)
    shards;
  let rb = L.rec_base tm in
  ignore
    (Wf.update_tx sh0 (fun itx ->
         Wf.store itx (rb + 1) 800;
         Wf.store itx (rb + 2) 0b11;
         Wf.store itx (rb + 3) 2;
         Wf.store itx (rb + 4) 1;
         Wf.store itx (rb + 5) (Sh_wf.root tm 0);
         Wf.store itx (rb + 6) 0;
         Wf.store itx (rb + 7) (Sh_wf.root tm 1);
         Wf.store itx (rb + 8) 0;
         Wf.store itx (rb + L.rec_frees_off tm) live;
         0));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  Array.iteri
    (fun s sh ->
      check bool (Printf.sprintf "shard %d unlocked" s) true (unfrozen tm s);
      check int (Printf.sprintf "shard %d pendings cleared" s) 0
        (rd sh (L.pcount_cell tm s));
      check int
        (Printf.sprintf "shard %d both members' allocations rolled back" s)
        base.(s) (Wf.allocated_cells sh))
    shards;
  check int "uncommitted batch never replayed" (accounts * 100) (total tm);
  check int "live block untouched" 1234
    (Wf.read_tx sh0 (fun itx -> Wf.load itx live));
  transfer tm 0 5 3;
  check int "router usable after roll-back" (accounts * 100) (total tm)

(* Partially-helped batch: shard 1's apply had already run (a helper got
   there before the crash), shard 0's had not.  Recovery must finish the
   batch on shard 0 and SKIP shard 1 — the monotone applied-id guard —
   so shard 1's post-apply state (here a sentinel overwrite) is not
   clobbered by a replayed write and the recorded free is not executed a
   second time. *)
let test_batch_partially_helped () =
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let shards = Sh_wf.shards tm in
  let sh0 = shards.(0) and sh1 = shards.(1) in
  let id = 700 in
  (* a pre-batch block on shard 1 that the batch frees *)
  let f1 =
    Wf.update_tx sh1 (fun itx ->
        let a = Wf.alloc itx 2 in
        Wf.store itx a 7;
        a)
  in
  (* shard 0: prepared but not applied — freeze held, one write-ahead
     pending allocation *)
  ignore
    (Wf.update_tx sh0 (fun itx ->
         let a = Wf.alloc itx 2 in
         Wf.store itx (L.pslot_cell tm 0 0) a;
         Wf.store itx (L.pcount_cell tm 0) 1;
         0));
  let base0 = Wf.allocated_cells sh0 in
  freeze tm 0;
  (* shard 1: already applied by a helper — write landed, free done,
     pendings cleared, applied id stamped, unlocked *)
  let l1 = Wf.root sh1 0 (* root tm 1's shard-local slot *) in
  ignore
    (Wf.update_tx sh1 (fun itx ->
         Wf.store itx l1 66;
         Wf.free itx f1;
         Wf.store itx (L.applied_cell tm 1) id;
         0));
  let base1 = Wf.allocated_cells sh1 in
  (* a sentinel a buggy re-apply of shard 1 would clobber back to 66 —
     and its recorded free would double-free [f1] *)
  ignore (Wf.update_tx sh1 (fun itx -> Wf.store itx l1 999; 0));
  let rb = L.rec_base tm in
  ignore
    (Wf.update_tx sh0 (fun itx ->
         Wf.store itx (rb + 1) id;
         Wf.store itx (rb + 2) 0b11;
         Wf.store itx (rb + 3) 2;
         Wf.store itx (rb + 4) 1;
         Wf.store itx (rb + 5) (Sh_wf.root tm 0);
         Wf.store itx (rb + 6) 55;
         Wf.store itx (rb + 7) (Sh_wf.root tm 1);
         Wf.store itx (rb + 8) 66;
         Wf.store itx (rb + L.rec_frees_off tm) (Sh_wf.span tm + f1);
         Wf.store itx rb 1;
         0));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  let v k = Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm k)) in
  check int "shard 0 caught up" 55 (v 0);
  check int "shard 1 NOT re-applied (sentinel intact)" 999 (v 1);
  check int "no double free on shard 1" base1 (Wf.allocated_cells sh1);
  check int "shard 0 pending adopted" base0 (Wf.allocated_cells sh0);
  check bool "shard 0 unlocked" true (unfrozen tm 0);
  check int "shard 0 pendings cleared" 0 (rd sh0 (L.pcount_cell tm 0));
  check int "shard 0 applied id" id (rd sh0 (L.applied_cell tm 0));
  check int "record finalized" 2
    (Wf.read_tx sh0 (fun itx -> Wf.load itx rb));
  transfer tm 2 3 5;
  let after = Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 2)) in
  check int "router usable after partial-help recovery" 95 after

(* --- batched 2PC: torn-batch-record crash sweep -------------------- *)

(* The planted [torn_batch_record] fault truncates the ONE batch commit
   record to the first member's contribution, so crash-replay applies
   half a batch.  It only manifests on batches with >= 2 members — which
   the free schedule never forms (each owner leads its own singleton
   batch to completion).  The sweep therefore parks fiber 1 after [k] of
   its own steps and then forces fiber 0 to run: when [k] lands in fiber
   1's publish->leader-CAS window, fiber 0's drain picks up both requests
   and forms a two-member batch.  Park points are calibrated against the
   router.batch_size telemetry of the crash-free base run, and only
   schedules that actually form a multi-member batch are crash-swept. *)

let sweep_cfg ~fault te =
  {
    E.default with
    E.wf = true;
    shards = 2;
    threads = 2;
    sanitize = false;
    fault;
    telemetry = Some te;
  }

let park_schedule k = Array.append (Array.make k 1) (Array.make 250 0)

let sweep_prog seed =
  Proggen.gen_program ~max_txns:4 ~max_ops:4 ~transfer_weight:10 seed

(* does the base run of [sched] form a batch of >= 2 members? *)
let forms_multi ~fault prog sched =
  let te = Telemetry.create () in
  match
    E.explore_crashes ~config:(sweep_cfg ~fault te) ~max_sites:0
      ~schedule:sched prog
  with
  | _ -> (Telemetry.span_summary te "router.batch_size").Telemetry.max >= 2
  | exception Explore.Divergence _ -> false

let multi_member_schedules ~fault ?(limit = 3) prog =
  let rec go acc k =
    if k > 400 || List.length acc >= limit then List.rev acc
    else
      let s = park_schedule k in
      go (if forms_multi ~fault prog s then s :: acc else acc) (k + 1)
  in
  go [] 1

let crash_sweep ~fault prog sched =
  match
    E.explore_crashes
      ~config:(sweep_cfg ~fault (Telemetry.create ()))
      ~sites:`Persist ~max_sites:40 ~schedule:sched prog
  with
  | r -> r.E.failure
  | exception Explore.Divergence _ -> None

let test_torn_batch_found () =
  let fault = E.Torn_batch_record in
  let find prog =
    List.fold_left
      (fun acc sched ->
        match acc with Some _ -> acc | None -> crash_sweep ~fault prog sched)
      None
      (multi_member_schedules ~fault prog)
  in
  let rec hunt = function
    | [] -> None
    | seed :: rest -> (
        match find (sweep_prog seed) with Some f -> Some f | None -> hunt rest)
  in
  (* the truncation only bites when the SECOND member contributes fresh
     addresses (values are looked up in the full union, so a same-cells
     batch writes a complete record anyway).  Read-only transactions no
     longer pad batches — they run on the snapshot path — so seeds whose
     concurrent transfers hit identical root pairs (1-5) form torn-proof
     batches; the hunt continues to seeds with disjoint pairs. *)
  match hunt [ 1; 2; 5; 11; 16 ] with
  | None -> Alcotest.fail "planted torn batch record not found within budget"
  | Some f ->
      check bool "found at a crash point" true (f.E.crash <> None);
      let r1 = E.replay f and r2 = E.replay f in
      check bool "replay still fails" true (Option.is_some r1);
      check bool "replay deterministic" true (r1 = r2)

let test_torn_batch_clean_battery () =
  (* the SAME multi-member-batch sweep on the clean batcher must be
     silent: every crash point of a >= 2-member batch recovers to a
     crash-consistent prefix *)
  let swept = ref 0 in
  List.iter
    (fun seed ->
      let prog = sweep_prog seed in
      List.iter
        (fun sched ->
          incr swept;
          match crash_sweep ~fault:E.No_fault prog sched with
          | Some f -> Alcotest.failf "seed %d: %a" seed E.pp_failure f
          | None -> ())
        (multi_member_schedules ~fault:E.No_fault prog))
    [ 1; 2; 3 ];
  check bool "multi-member batches were actually swept" true (!swept > 0)

let test_lf_router_volatile () =
  (* the functor is TM-generic: LF shards over a volatile device *)
  let device = Region.create ~mode:Region.Volatile (2 * 4096) in
  let views = Region.partition device [ 4096; 4096 ] in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Lf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ())
         views)
  in
  let tm = Sh_lf.make ~max_threads:8 ~ro_snapshot:Lf.snapshot_ops shards in
  ignore
    (Sh_lf.update_tx tm (fun tx ->
         Sh_lf.store tx (Sh_lf.root tm 0) 1;
         Sh_lf.store tx (Sh_lf.root tm 1) 2;
         0));
  let v =
    Sh_lf.read_tx tm (fun tx ->
        Sh_lf.load tx (Sh_lf.root tm 0) + Sh_lf.load tx (Sh_lf.root tm 1))
  in
  check int "volatile lf cross tx" 3 v

(* --- elastic sharding: live range migration ------------------------ *)

let ok = Alcotest.of_pp (fun ppf -> function
  | `Ok -> Fmt.string ppf "Ok"
  | `Busy -> Fmt.string ppf "Busy"
  | `Invalid m -> Fmt.pf ppf "Invalid %s" m)

let test_migrate_split_merge () =
  let _dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  (* root 6 sits in the upper half of shard 0's root block (slot 3 of
     usable 7); give it a distinguishable balance *)
  transfer tm 0 6 17;
  check ok "split" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  check int "one migrated range" 1 (Array.length (Sh_wf.map_entries tm));
  check int "epoch flipped" 1 (Sh_wf.map_epoch tm);
  check int "migrated root rehomed" 1 (Sh_wf.shard_of tm (Sh_wf.root tm 6));
  check int "conservation across the flip" (8 * 100) (total tm);
  let v6 = Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 6)) in
  check int "migrated value intact" 117 v6;
  (* writes keep landing on the new home, reads see them *)
  transfer tm 6 1 7;
  check int "post-flip write" 110
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 6)));
  check int "conservation after post-flip traffic" (8 * 100) (total tm);
  (* retire the range back home *)
  check ok "merge" `Ok (Sh_wf.merge tm ~src:1 ~dst:0);
  check int "range table empty again" 0 (Array.length (Sh_wf.map_entries tm));
  check int "epoch flipped again" 2 (Sh_wf.map_epoch tm);
  check int "root back home" 0 (Sh_wf.shard_of tm (Sh_wf.root tm 6));
  check int "value survived the round trip" 110
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 6)));
  check int "conservation after the round trip" (8 * 100) (total tm)

(* Routing is one load of the published map image whatever the map
   holds: from inside a fiber, one [shard_of] costs exactly one scheduler
   step on a fresh router, after a split (inside and outside the moved
   range) and after the merge back. *)
let test_route_step_cost () =
  let _dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let run f = Sched.total_steps (Sched.run [| f |]) in
  (* net of the fiber's own start-up step(s) *)
  let steps g = run (fun () -> ignore (Sh_wf.shard_of tm g)) - run ignore in
  let inside = Sh_wf.root tm 6 and outside = Sh_wf.root tm 0 in
  check int "fresh router" 1 (steps inside);
  check ok "split" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  check int "inside is the moved range" 1 (Sh_wf.shard_of tm inside);
  check int "split: inside the moved range" 1 (steps inside);
  check int "split: outside it" 1 (steps outside);
  check ok "merge" `Ok (Sh_wf.merge tm ~src:1 ~dst:0);
  check int "merged back" 1 (steps inside)

(* Routing is paid once per transaction, not once per access.  The
   steps a single-shard transaction pays on top of the same transaction
   run directly on its shard do not grow with the cells it touches: the
   classify pre-pass loads the map image and the migration descriptor
   once (2 steps), and the single-shard call adds a fixed handful — the
   token, the freeze pre-check, its own image load, the in-transaction
   freeze-word (update) or epoch-cell (read) load, and, for an update,
   one descriptor read per attempt.  A pure closure costs nothing. *)
let test_route_once_cost () =
  let fresh () =
    let _dev, tm = mk_sharded ~n:2 () in
    init_accounts tm 100;
    (tm, (Sh_wf.shards tm).(0))
  in
  let run f = Sched.total_steps (Sched.run [| f |]) in
  let net f = run f - run ignore in
  (* k accesses: k/2 read-modify-writes of distinct cells on shard 0 *)
  let rmw load store addr k tx =
    for j = 0 to (k / 2) - 1 do
      let a = addr j in
      store tx a (load tx a + 1)
    done;
    0
  in
  let reads load addr k tx =
    let s = ref 0 in
    for j = 0 to k - 1 do
      s := !s + load tx (addr (j mod 4))
    done;
    !s
  in
  (* the two runs happen on twin instances at the same point of their
     histories, so the shards' periodic work (floor refresh, reclamation
     scans) falls alike on both *)
  let overhead via direct =
    let tm, _ = fresh () and tm', sh0 = fresh () in
    net (via tm) - net (direct tm' sh0)
  in
  let global tm j = Sh_wf.root tm (2 * j) and local sh0 j = Wf.root sh0 j in
  let update k =
    overhead
      (fun tm () ->
        ignore (Sh_wf.update_tx tm (rmw Sh_wf.load Sh_wf.store (global tm) k)))
      (fun _ sh0 () ->
        ignore (Wf.update_tx sh0 (rmw Wf.load Wf.store (local sh0) k)))
  in
  let read k =
    overhead
      (fun tm () -> ignore (Sh_wf.read_tx tm (reads Sh_wf.load (global tm) k)))
      (fun _ sh0 () -> ignore (Wf.read_tx sh0 (reads Wf.load (local sh0) k)))
  in
  check int "update, 2 accesses" 7 (update 2);
  check int "update, 8 accesses: same router steps" 7 (update 8);
  check int "read, 2 accesses" 4 (read 2);
  check int "read, 8 accesses: same router steps" 4 (read 8);
  let tm, _ = fresh () in
  check int "pure closure" 0
    (net (fun () -> ignore (Sh_wf.update_tx tm (fun _ -> 42))))

(* The contention stagger is adaptive.  Fiber 0's first single-shard
   update is interrupted after its first real load while fiber 1 commits
   on the same shard, so fiber 0 re-runs its closure.  Its next call then
   waits a seeded 1..8 steps before the transaction; that call ran its
   closure once, so the call after it waits nothing.  Both later calls
   run alone and do the same work, so their step counts differ by the
   stagger alone. *)
let test_contention_stagger () =
  let device = Region.create ~mode:Region.Volatile (2 * 4096) in
  let views = Region.partition device [ 4096; 4096 ] in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Lf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ~num_roots:8 ())
         views)
  in
  let tm = Sh_lf.make ~max_threads:8 ~ro_snapshot:Lf.snapshot_ops shards in
  let r0 = Sh_lf.root tm 0 and r2 = Sh_lf.root tm 2 in
  let bump r =
    ignore
      (Sh_lf.update_tx tm (fun tx ->
           Sh_lf.store tx r (Sh_lf.load tx r + 1);
           0))
  in
  bump r0;
  let armed = ref false and runs = ref 0 in
  (* phase 1: the contended call; 2 and 3: the two solo calls *)
  let phase = ref 1 and steps = Array.make 4 0 in
  let f0 () =
    ignore
      (Sh_lf.update_tx tm (fun tx ->
           let a = Sh_lf.load tx r0 in
           (* the classify pre-pass serves 0; real executions see 1+ *)
           if a <> 0 then begin
             armed := true;
             incr runs
           end;
           Sh_lf.store tx r0 (a + 1);
           0));
    phase := 2;
    bump r0;
    phase := 3;
    bump r0
  in
  let f1 () = bump r2 in
  let pick ~step:_ ~enabled ~last:_ =
    let runnable tid = Array.mem tid enabled in
    let t =
      if (not !armed) && runnable 0 then 0
      else if runnable 1 then 1
      else enabled.(0)
    in
    if t = 0 then steps.(!phase) <- steps.(!phase) + 1;
    t
  in
  ignore (Sched.run_controlled ~pick [| f0; f1 |]);
  check int "root 2 on shard 0" 0 (Sh_lf.shard_of tm r2);
  check bool "the first call re-ran its closure" true (!runs >= 2);
  check int "every increment landed" 4
    (Sh_lf.read_tx tm (fun tx -> Sh_lf.load tx r0));
  let stagger = steps.(2) - steps.(3) in
  check bool
    (Printf.sprintf "the next call staggers 1..8 steps (%d)" stagger)
    true
    (stagger >= 1 && stagger <= 8)

(* A flip that lands between two loads of a home-shard attempt.  Fiber 0
   runs a single-shard update on shard 0 over root 0 and root 6; the
   controlled schedule stops it right after its first real load and runs
   fiber 1 to completion: a split that moves root 6 to shard 1, then a
   post-flip write of 999 to root 6 (which lands on shard 1 only).  When
   fiber 0 resumes, its attempt reads root 6 from the abandoned shard-0
   copy (7); that value must never be committed or returned — the
   epoch the flip wrote into shard 0's freeze word restarts the attempt
   and makes its retry take the post-flip image. *)
let test_flip_between_loads () =
  let device = Region.create ~mode:Region.Volatile (2 * 4096) in
  let views = Region.partition device [ 4096; 4096 ] in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Lf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ~num_roots:8 ())
         views)
  in
  let tm = Sh_lf.make ~max_threads:8 ~ro_snapshot:Lf.snapshot_ops shards in
  let r0 = Sh_lf.root tm 0 and r6 = Sh_lf.root tm 6 in
  ignore
    (Sh_lf.update_tx tm (fun tx ->
         Sh_lf.store tx r0 100;
         Sh_lf.store tx r6 7;
         0));
  check int "both on shard 0" 0 (Sh_lf.shard_of tm r6);
  let armed = ref false and seen = ref [] and result = ref 0 in
  let f0 () =
    result :=
      Sh_lf.update_tx tm (fun tx ->
          let a = Sh_lf.load tx r0 in
          (* the classify pre-pass serves 0; a real execution sees 100+ *)
          if a <> 0 then armed := true;
          let b = Sh_lf.load tx r6 in
          if a <> 0 then seen := b :: !seen;
          Sh_lf.store tx r0 (a + b);
          b)
  in
  let f1 () =
    (match Sh_lf.split tm ~src:0 ~dst:1 with
    | `Ok -> ()
    | `Busy | `Invalid _ -> Alcotest.fail "split");
    ignore (Sh_lf.update_tx tm (fun tx -> Sh_lf.store tx r6 999; 0))
  in
  let pick ~step:_ ~enabled ~last:_ =
    let runnable tid = Array.mem tid enabled in
    if (not !armed) && runnable 0 then 0
    else if runnable 1 then 1
    else enabled.(0)
  in
  ignore (Sched.run_controlled ~pick [| f0; f1 |]);
  check int "the flip moved root 6" 1 (Sh_lf.shard_of tm r6);
  check bool "an attempt read the abandoned copy" true (List.mem 7 !seen);
  check int "returned the post-flip value" 999 !result;
  check int "committed the post-flip value" 1099
    (Sh_lf.read_tx tm (fun tx -> Sh_lf.load tx r0));
  check int "root 6 keeps the post-flip write" 999
    (Sh_lf.read_tx tm (fun tx -> Sh_lf.load tx r6))

(* No batch executes across a flip: flips (and descriptor retirement) run
   at a batch boundary under the leader token, so every member of a
   batch runs under one map image.  Cross-shard transfer members record
   the map epoch they start and end under, tagged with the number of
   batches published so far — the same for every member of one batch,
   since a batch is published only after all its members ran — while a
   migrator splits and merges.  Within each tag the epochs must agree,
   over several schedules. *)
let test_no_batch_across_flip () =
  List.iter
    (fun seed ->
      let _dev, tm0 = mk_sharded ~n:2 () in
      (* a watermark of 1 closes every accumulation window at once, so
         batches run back to back and a flip has no idle gap to hide in *)
      let tm =
        Sh_wf.make ~max_threads:8 ~batch_watermark:1
          ~ro_snapshot:Wf.snapshot_ops (Sh_wf.shards tm0)
      in
      init_accounts tm 100;
      let te = Telemetry.create () in
      Sh_wf.attach_telemetry tm te;
      let by_batch = Hashtbl.create 64 in
      let note k e =
        match Hashtbl.find_opt by_batch k with
        | None -> Hashtbl.replace by_batch k [ e ]
        | Some es -> Hashtbl.replace by_batch k (e :: es)
      in
      let worker w () =
        for i = 1 to 12 do
          (* even roots live on shard 0, odd roots on shard 1 *)
          let a = 2 * ((w + i) mod 4) and b = (2 * ((w + (3 * i)) mod 4)) + 1 in
          ignore
            (Sh_wf.update_tx tm (fun tx ->
                 let e0 = Sh_wf.map_epoch tm in
                 let k = Telemetry.get te "router.batch_commits" in
                 let ra = Sh_wf.root tm a and rb = Sh_wf.root tm b in
                 let va = Sh_wf.load tx ra in
                 let vb = Sh_wf.load tx rb in
                 Sh_wf.store tx ra (va - 1);
                 Sh_wf.store tx rb (vb + 1);
                 (* only a real (batch) execution sees nonzero balances *)
                 if va <> 0 then begin
                   note k e0;
                   note k (Sh_wf.map_epoch tm)
                 end;
                 0))
        done
      in
      let migrator () =
        for _ = 1 to 3 do
          (match Sh_wf.split tm ~src:0 ~dst:1 with
          | `Ok -> ()
          | `Busy | `Invalid _ -> Alcotest.fail "split under traffic");
          match Sh_wf.merge tm ~src:1 ~dst:0 with
          | `Ok -> ()
          | `Busy | `Invalid _ -> Alcotest.fail "merge under traffic"
        done
      in
      ignore
        (Sched.run ~seed
           (Array.append
              (Array.init 3 (fun w () -> worker w ()))
              [| migrator |]));
      let straddled =
        Hashtbl.fold
          (fun _ es n ->
            if List.exists (fun e -> e <> List.hd es) es then n + 1 else n)
          by_batch 0
      in
      check bool (Printf.sprintf "seed %d: members ran in batches" seed) true
        (Hashtbl.length by_batch > 0);
      check int (Printf.sprintf "seed %d: no batch straddled a flip" seed) 0
        straddled;
      check int (Printf.sprintf "seed %d: six flips" seed) 6 (Sh_wf.map_epoch tm);
      check int (Printf.sprintf "seed %d: conservation" seed) (8 * 100) (total tm);
      Sh_wf.detach_telemetry tm)
    [ 1; 2; 3; 4; 5 ]

let test_migrate_under_traffic () =
  let _dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let te = Telemetry.create () in
  Sh_wf.attach_telemetry tm te;
  let rng = Rng.create 42 in
  let worker w () =
    for i = 1 to 30 do
      let a = (w + i) mod accounts and b = (w + (2 * i) + 1) mod accounts in
      if a <> b then transfer tm a b ((i mod 5) + 1)
    done
  in
  let migrator () =
    (match Sh_wf.split tm ~src:0 ~dst:1 with
    | `Ok -> ()
    | `Busy | `Invalid _ -> Alcotest.fail "split under traffic");
    for _ = 1 to 10 do
      ignore (Rng.int rng 2);
      Sched.step_point ()
    done;
    match Sh_wf.merge tm ~src:1 ~dst:0 with
    | `Ok -> ()
    | `Busy | `Invalid _ -> Alcotest.fail "merge under traffic"
  in
  ignore
    (Sched.run ~seed:7
       (Array.append
          (Array.init 3 (fun w () -> worker w ()))
          [| migrator |]));
  check int "conservation under migration storm" (8 * 100) (total tm);
  check int "both migrations completed" 2
    (Telemetry.get te "router.migrations");
  check int "epoch flips observed" 2 (Telemetry.get te "router.map_epoch");
  check int "table empty after round trip" 0
    (Array.length (Sh_wf.map_entries tm));
  Sh_wf.detach_telemetry tm

let test_migrate_validation () =
  let _dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let inv = function `Invalid _ -> true | `Ok | `Busy -> false in
  check bool "same shard rejected" true
    (inv (Sh_wf.migrate_range tm ~lo:(Sh_wf.root tm 0) ~len:2 ~dst:0));
  check bool "no such shard rejected" true
    (inv (Sh_wf.migrate_range tm ~lo:(Sh_wf.root tm 0) ~len:2 ~dst:9));
  check bool "empty range rejected" true
    (inv (Sh_wf.migrate_range tm ~lo:(Sh_wf.root tm 0) ~len:0 ~dst:1));
  check bool "shard-boundary straddle rejected" true
    (inv (Sh_wf.migrate_range tm ~lo:(Sh_wf.span tm - 2) ~len:4 ~dst:1));
  (* the shard-0 control block (and the batch record/map/migration
     appendix behind it) must be unmovable *)
  check bool "control block protected" true
    (inv (Sh_wf.migrate_range tm ~lo:(L.lock_cell tm 0) ~len:4 ~dst:1));
  check bool "record appendix protected" true
    (inv (Sh_wf.migrate_range tm ~lo:(L.mig_base tm) ~len:4 ~dst:1));
  (* reserved root slot (holds the control-block pointer) *)
  let sh0 = (Sh_wf.shards tm).(0) in
  check bool "reserved root slot protected" true
    (inv (Sh_wf.migrate_range tm ~lo:(Wf.root sh0 7) ~len:1 ~dst:1));
  (* a live split, then: overlap and non-native retire rejected *)
  check ok "setup split" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  let lo, len, _, _ = (Sh_wf.map_entries tm).(0) in
  check bool "partial overlap rejected" true
    (inv (Sh_wf.migrate_range tm ~lo:(lo + 1) ~len ~dst:1));
  check bool "exact range to a third home rejected" true
    (inv (Sh_wf.migrate_range tm ~lo ~len ~dst:1));
  check ok "retire cleanly" `Ok (Sh_wf.migrate_range tm ~lo ~len ~dst:0)

let test_migrate_table_full () =
  let device = Region.create (2 * 4096) in
  let views = Region.partition device [ 4096; 4096 ] in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Wf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ~num_roots:8 ())
         views)
  in
  let tm =
    Sh_wf.make ~max_threads:8 ~max_ranges:1 ~ro_snapshot:Wf.snapshot_ops
      shards
  in
  check ok "first split fits" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  (match Sh_wf.split tm ~src:1 ~dst:0 with
  | `Invalid _ -> ()
  | `Ok | `Busy -> Alcotest.fail "second range must overflow the table");
  check ok "retire frees the slot" `Ok (Sh_wf.merge tm ~src:1 ~dst:0);
  check ok "slot reusable" `Ok (Sh_wf.split tm ~src:1 ~dst:0)

let test_migration_roll_forward () =
  (* fabricate the durable footprint of a crash right after the
     migration record became durable, before any chunk was copied: a
     held host block on dst and a status=1 record on shard 0.  Recovery
     must roll the move FORWARD — full recopy, entry + epoch settled,
     hold lifted. *)
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  transfer tm 0 6 23;
  let shards = Sh_wf.shards tm in
  let sh0 = shards.(0) and sh1 = shards.(1) in
  let sbase = Wf.root sh0 3 (* slots 3..6: upper half of 7 roots *) in
  let len = 4 in
  let hold1 = L.mighold_cell tm 1 in
  let dbase =
    Wf.update_tx sh1 (fun itx ->
        let a = Wf.alloc itx len in
        Wf.store itx hold1 a;
        a)
  in
  let mb = L.mig_base tm in
  ignore
    (Wf.update_tx sh0 (fun itx ->
         Wf.store itx (mb + 1) sbase (* global lo = shard-0 local *);
         Wf.store itx (mb + 2) len;
         Wf.store itx (mb + 3) 0;
         Wf.store itx (mb + 4) 1;
         Wf.store itx (mb + 5) sbase;
         Wf.store itx (mb + 6) dbase;
         Wf.store itx (mb + 7) 1;
         Wf.store itx mb 1;
         0));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  check int "entry settled" 1 (Array.length (Sh_wf.map_entries tm));
  check int "epoch settled" 1 (Sh_wf.map_epoch tm);
  check int "record finalized" 2
    (Wf.read_tx sh0 (fun itx -> Wf.load itx mb));
  check int "hold lifted" 0 (Wf.read_tx sh1 (fun itx -> Wf.load itx hold1));
  check int "root rehomed" 1 (Sh_wf.shard_of tm (Sh_wf.root tm 6));
  check int "value recopied" 123
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 6)));
  check int "conservation" (8 * 100) (total tm);
  (* the router stays fully usable, including retiring the adopted range *)
  transfer tm 6 0 3;
  check ok "retire after roll-forward" `Ok (Sh_wf.merge tm ~src:1 ~dst:0);
  check int "conservation after retire" (8 * 100) (total tm)

let test_migration_roll_back () =
  (* a held host block with NO migration record is an orphan of a crash
     before the point of no return: recovery frees it and clears the
     hold; the map stays empty *)
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let sh1 = (Sh_wf.shards tm).(1) in
  let base = Wf.allocated_cells sh1 in
  let hold1 = L.mighold_cell tm 1 in
  ignore
    (Wf.update_tx sh1 (fun itx ->
         let a = Wf.alloc itx 4 in
         Wf.store itx hold1 a;
         a));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  check int "orphan host block freed" base (Wf.allocated_cells sh1);
  check int "hold cleared" 0
    (Wf.read_tx sh1 (fun itx -> Wf.load itx hold1));
  check int "no entry" 0 (Array.length (Sh_wf.map_entries tm));
  check int "epoch untouched" 0 (Sh_wf.map_epoch tm);
  check int "conservation" (8 * 100) (total tm)

let test_migration_reopen_adoption () =
  (* a second router incarnation over the same device adopts the
     persistent map: routes, values and a follow-up retire all work *)
  let _dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  transfer tm 0 6 9;
  check ok "split" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  let tm2 =
    Sh_wf.make ~max_threads:8 ~ro_snapshot:Wf.snapshot_ops (Sh_wf.shards tm)
  in
  check int "entry adopted" 1 (Array.length (Sh_wf.map_entries tm2));
  check int "epoch adopted" 1 (Sh_wf.map_epoch tm2);
  check int "route adopted" 1 (Sh_wf.shard_of tm2 (Sh_wf.root tm2 6));
  check int "value through the adopted map" 109
    (Sh_wf.read_tx tm2 (fun tx -> Sh_wf.load tx (Sh_wf.root tm2 6)));
  check ok "retire through the adopted map" `Ok (Sh_wf.merge tm2 ~src:1 ~dst:0);
  check int "conservation" (8 * 100) (total tm2)

let test_torn_migration_manifests () =
  (* self-check that the planted fault is a real bug: the settle
     transaction persists a half-length entry, so after a crash the
     reopened router routes the upper half of the range to the stale
     source copy and post-flip writes to it are lost *)
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  (Sh_wf.faults tm).Sh_wf.torn_migration <- true;
  check ok "split with fault armed" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  (* root slot 5 of shard 0 (global root index 10) is in the torn-off
     upper half; write it post-flip — crash-free reads see the write *)
  let r10 = Sh_wf.root tm 10 in
  ignore (Sh_wf.update_tx tm (fun tx -> Sh_wf.store tx r10 777; 0));
  check int "crash-free read sees the write" 777
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx r10));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  check bool "post-flip write lost after crash (fault manifests)" true
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx r10) <> 777)

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "structures-unchanged" `Quick
            test_structures_over_router;
          Alcotest.test_case "single-shard-parallel" `Quick
            test_single_shard_parallel;
          Alcotest.test_case "cross-transfer-conservation" `Quick
            test_cross_transfer_conservation;
          Alcotest.test_case "cross-alloc-free" `Quick test_cross_alloc_free;
          Alcotest.test_case "crash-recovery" `Quick test_crash_recovery;
          Alcotest.test_case "rollback-recovery" `Quick
            test_rollback_recovery;
          Alcotest.test_case "lf-volatile-router" `Quick
            test_lf_router_volatile;
        ] );
      ( "batch-recovery",
        [
          Alcotest.test_case "roll-forward-after-status-pwb" `Quick
            test_batch_roll_forward;
          Alcotest.test_case "roll-back-multi-member" `Quick
            test_batch_rollback_multi;
          Alcotest.test_case "partially-helped-batch" `Quick
            test_batch_partially_helped;
        ] );
      ( "torn-batch-sweep",
        [
          Alcotest.test_case "planted-fault-found" `Quick
            test_torn_batch_found;
          Alcotest.test_case "clean-batcher-survives" `Quick
            test_torn_batch_clean_battery;
        ] );
      ( "migration",
        [
          Alcotest.test_case "split-merge-roundtrip" `Quick
            test_migrate_split_merge;
          Alcotest.test_case "routing-step-cost" `Quick test_route_step_cost;
          Alcotest.test_case "route-once-step-cost" `Quick
            test_route_once_cost;
          Alcotest.test_case "contention-stagger" `Quick
            test_contention_stagger;
          Alcotest.test_case "flip-between-loads" `Quick
            test_flip_between_loads;
          Alcotest.test_case "no-batch-across-flip" `Quick
            test_no_batch_across_flip;
          Alcotest.test_case "migrate-under-traffic" `Quick
            test_migrate_under_traffic;
          Alcotest.test_case "validation" `Quick test_migrate_validation;
          Alcotest.test_case "range-table-full" `Quick
            test_migrate_table_full;
          Alcotest.test_case "crash-roll-forward" `Quick
            test_migration_roll_forward;
          Alcotest.test_case "crash-roll-back" `Quick
            test_migration_roll_back;
          Alcotest.test_case "reopen-adoption" `Quick
            test_migration_reopen_adoption;
          Alcotest.test_case "torn-migration-manifests" `Quick
            test_torn_migration_manifests;
        ] );
    ]
