(* Tests for the OneFile core: write-set, lock-free and wait-free
   transactions, helping, persistence and null recovery. *)

open Runtime
module Region = Pmem.Region
module Word = Pmem.Word
module Pstats = Pmem.Pstats
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf
module Writeset = Onefile.Writeset

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Both algorithms share types; parametrize tests with a vtable. *)
type api = {
  label : string;
  mk :
    ?mode:Region.mode -> ?size:int -> ?max_threads:int -> ?ws_cap:int -> unit -> Lf.t;
  update : Lf.t -> (Lf.tx -> int) -> int;
  read : Lf.t -> (Lf.tx -> int) -> int;
  recover : Lf.t -> unit;
}

let lf_api =
  {
    label = "lf";
    mk =
      (fun ?mode ?size ?max_threads ?ws_cap () ->
        Lf.create ?mode ?size ?max_threads ?ws_cap ());
    update = Lf.update_tx;
    read = Lf.read_tx;
    recover = Lf.recover;
  }

let wf_api =
  {
    label = "wf";
    mk =
      (fun ?mode ?size ?max_threads ?ws_cap () ->
        Wf.create ?mode ?size ?max_threads ?ws_cap ());
    update = Wf.update_tx;
    read = Wf.read_tx;
    recover = Wf.recover;
  }

let apis = [ lf_api; wf_api ]

let foreach_api f =
  List.iter (fun api -> f api) apis

(* ------------------------------------------------------------------ *)
(* Write-set *)

let test_ws_put_find () =
  let ws = Writeset.create 100 in
  Writeset.put ws 10 1;
  Writeset.put ws 20 2;
  check (Alcotest.option int) "find" (Some 1) (Writeset.find ws 10);
  check (Alcotest.option int) "miss" None (Writeset.find ws 30);
  Writeset.put ws 10 9;
  check (Alcotest.option int) "replaced" (Some 9) (Writeset.find ws 10);
  check int "size counts unique addresses" 2 (Writeset.size ws)

let test_ws_hash_transition () =
  let ws = Writeset.create 200 in
  for i = 1 to 100 do
    Writeset.put ws (i * 8) i
  done;
  check int "size" 100 (Writeset.size ws);
  for i = 1 to 100 do
    check (Alcotest.option int) "find after hash transition" (Some i)
      (Writeset.find ws (i * 8))
  done;
  Writeset.put ws 8 42;
  check (Alcotest.option int) "replace in hash mode" (Some 42) (Writeset.find ws 8);
  check int "size unchanged" 100 (Writeset.size ws)

let test_ws_clear_reuse () =
  let ws = Writeset.create 100 in
  for i = 1 to 60 do
    Writeset.put ws i i
  done;
  Writeset.clear ws;
  check bool "empty" true (Writeset.is_empty ws);
  check (Alcotest.option int) "stale entries gone" None (Writeset.find ws 5);
  Writeset.put ws 5 7;
  check (Alcotest.option int) "usable after clear" (Some 7) (Writeset.find ws 5)

let test_ws_overflow () =
  let ws = Writeset.create 4 in
  for i = 1 to 4 do
    Writeset.put ws i i
  done;
  check bool "overflow raises" true
    (match Writeset.put ws 5 5 with exception Failure _ -> true | () -> false)

let test_ws_iteration_order () =
  let ws = Writeset.create 10 in
  Writeset.put ws 3 30;
  Writeset.put ws 1 10;
  Writeset.put ws 2 20;
  let order = ref [] in
  Writeset.iter ws (fun a v -> order := (a, v) :: !order);
  check (Alcotest.list (Alcotest.pair int int)) "insertion order"
    [ (3, 30); (1, 10); (2, 20) ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Sequential transaction semantics (same for LF and WF) *)

let test_root_store_load api () =
  let t = api.mk () in
  let r0 = Lf.root t 0 in
  ignore (api.update t (fun tx -> Lf.store tx r0 77; 0));
  check int "read back" 77 (api.read t (fun tx -> Lf.load tx r0))

let test_read_after_write api () =
  let t = api.mk () in
  let r0 = Lf.root t 0 in
  let seen =
    api.update t (fun tx ->
        Lf.store tx r0 5;
        let a = Lf.load tx r0 in
        Lf.store tx r0 6;
        let b = Lf.load tx r0 in
        (a * 10) + b)
  in
  check int "tx sees own writes" 56 seen

let test_empty_update_is_readonly api () =
  let t = api.mk () in
  let st = Region.stats (Lf.region t) in
  let before = st.Pstats.commits in
  ignore (api.update t (fun tx -> Lf.load tx (Lf.root t 0)));
  (* LF commits nothing for an empty write-set; WF always commits the
     transactional result write of the published operation. *)
  if api.label = "lf" then
    check int "no commit for empty write-set" before st.Pstats.commits
  else check bool "wf committed its result" true (st.Pstats.commits > before)

let test_store_in_read_tx_rejected api () =
  let t = api.mk () in
  check bool "rejected" true
    (match api.read t (fun tx -> Lf.store tx (Lf.root t 0) 1; 0) with
    | exception Tm.Tm_intf.Store_in_read_tx -> true
    | _ -> false)

let test_alloc_in_tx api () =
  let t = api.mk () in
  let r0 = Lf.root t 0 in
  ignore
    (api.update t (fun tx ->
         let a = Lf.alloc tx 2 in
         Lf.store tx a 11;
         Lf.store tx (a + 1) 22;
         Lf.store tx r0 a;
         0));
  let v =
    api.read t (fun tx ->
        let a = Lf.load tx r0 in
        Lf.load tx a + Lf.load tx (a + 1))
  in
  check int "allocated payload persists" 33 v

(* ------------------------------------------------------------------ *)
(* Concurrency *)

let run_fibers ?(seed = 42) ?cores ?max_rounds n body =
  ignore (Sched.run ~seed ?cores ?max_rounds (Array.init n (fun i () -> body i)))

let test_concurrent_increments api () =
  let t = api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 in
  let n = 6 and iters = 30 in
  run_fibers ~seed:17 n (fun _ ->
      for _ = 1 to iters do
        ignore
          (api.update t (fun tx ->
               let v = Lf.load tx r0 in
               Lf.store tx r0 (v + 1);
               0))
      done);
  check int "no lost increments" (n * iters) (api.read t (fun tx -> Lf.load tx r0))

let test_snapshot_consistency api () =
  (* Writers keep (r0, r1) equal; readers must never observe a torn pair. *)
  let t = api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
  let tearing = ref 0 in
  let writer _ =
    for i = 1 to 40 do
      ignore
        (api.update t (fun tx ->
             Lf.store tx r0 i;
             Lf.store tx r1 i;
             0))
    done
  in
  let reader _ =
    for _ = 1 to 60 do
      let d = api.read t (fun tx -> Lf.load tx r1 - Lf.load tx r0) in
      if d <> 0 then incr tearing
    done
  in
  ignore
    (Sched.run ~seed:23
       [| (fun () -> writer 0); (fun () -> writer 1); (fun () -> reader 0); (fun () -> reader 1) |]);
  check int "no torn snapshots" 0 !tearing

(* Round-robin controlled schedule that starves whichever fiber's commit
   is open: from its commit CAS until someone closes its request, the
   owner runs only when nothing else can.  [Lf.curtx_info] costs no step,
   so consulting it does not perturb the schedule. *)
let starve_open_committer t ~step:_ ~enabled ~last =
  let _, owner, open_ = Lf.curtx_info t in
  let ok i = not (open_ && i = owner) in
  let n = Array.length enabled in
  let rec after k =
    if k >= n then None
    else
      let i = enabled.(k) in
      if i > last && ok i then Some i else after (k + 1)
  in
  match after 0 with
  | Some i -> i
  | None -> (
      match List.find_opt ok (Array.to_list enabled) with
      | Some i -> i
      | None -> enabled.(0))

let test_helping_occurs api () =
  (* Every committer is starved while its request is open, so the other
     fibers find the open request and must apply its write-set. *)
  let t = api.mk ~mode:Region.Volatile () in
  let st = Region.stats (Lf.region t) in
  ignore
    (Sched.run_controlled ~pick:(starve_open_committer t)
       (Array.init 4 (fun _ () ->
            for _ = 1 to 5 do
              ignore
                (api.update t (fun tx ->
                     for i = 0 to 7 do
                       Lf.store tx (Lf.root t i) (Lf.load tx (Lf.root t i) + 1)
                     done;
                     0))
            done)));
  check bool (api.label ^ ": helping happened") true (st.Pstats.helps > 0);
  for i = 0 to 7 do
    check int "every increment applied once" 20
      (api.read t (fun tx -> Lf.load tx (Lf.root t i)))
  done

let test_dead_committer_completed api () =
  (* The decisive lock-freedom property: a thread that dies right after its
     commit CAS (write-set published, request open) must have its
     transaction completed by the surviving threads. *)
  let t = api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
  let killed = ref false in
  let victim () =
    ignore
      (api.update t (fun tx ->
           Lf.store tx r0 111;
           Lf.store tx r1 222;
           0));
    (* runs forever so only the kill can end it *)
    while true do
      Sched.step_point ()
    done
  in
  let survivor () =
    for _ = 1 to 50 do
      Sched.step_point ()
    done;
    ignore (api.update t (fun tx -> Lf.store tx (Lf.root t 2) 1; 0))
  in
  let on_round sched =
    let _, tid, open_ = Lf.curtx_info t in
    if (not !killed) && open_ && tid = 0 then begin
      ignore (Sched.kill sched 0);
      killed := true
    end
  in
  ignore (Sched.run ~on_round ~max_rounds:5000 [| victim; survivor |]);
  check bool (api.label ^ ": committer was killed mid-apply") true !killed;
  check int "first write applied by survivor" 111 (api.read t (fun tx -> Lf.load tx r0));
  check int "second write applied by survivor" 222 (api.read t (fun tx -> Lf.load tx r1));
  let _, _, open_ = Lf.curtx_info t in
  check bool "request closed" false open_

let test_transfer_invariant api () =
  (* Classic bank transfer: total is invariant under concurrent transfers. *)
  let t = api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
  ignore (api.update t (fun tx -> Lf.store tx r0 500; Lf.store tx r1 500; 0));
  run_fibers ~seed:31 4 (fun i ->
      for _ = 1 to 25 do
        ignore
          (api.update t (fun tx ->
               let a = Lf.load tx r0 and b = Lf.load tx r1 in
               let amount = 1 + (i mod 3) in
               Lf.store tx r0 (a - amount);
               Lf.store tx r1 (b + amount);
               0))
      done);
  let total = api.read t (fun tx -> Lf.load tx (Lf.root t 0) + Lf.load tx (Lf.root t 1)) in
  check int "conserved total" 1000 total

let test_concurrent_alloc_free api () =
  (* Each fiber repeatedly pushes and pops a private stack through shared
     memory; at the end nothing must be leaked. *)
  let t = api.mk ~mode:Region.Volatile () in
  let n = 4 in
  run_fibers ~seed:7 n (fun i ->
      let my_root = Lf.root t i in
      for _ = 1 to 10 do
        ignore
          (api.update t (fun tx ->
               let node = Lf.alloc tx 2 in
               Lf.store tx node 42;
               Lf.store tx (node + 1) (Lf.load tx my_root);
               Lf.store tx my_root node;
               0));
        ignore
          (api.update t (fun tx ->
               let node = Lf.load tx my_root in
               Lf.store tx my_root (Lf.load tx (node + 1));
               Lf.free tx node;
               0))
      done);
  check int "no leak" 0 (Lf.allocated_cells t)

(* ------------------------------------------------------------------ *)
(* Wait-free specifics *)

let test_wf_all_ops_complete_hostile_schedule () =
  (* Random scheduling with more fibers than cores; every operation must
     complete and the count must be exact. *)
  let t = wf_api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 in
  let n = 8 and iters = 15 in
  ignore
    (Sched.run ~seed:3 ~cores:2 ~policy:Sched.Random_order
       (Array.init n (fun _ () ->
            for _ = 1 to iters do
              ignore
                (Wf.update_tx t (fun tx ->
                     Lf.store tx r0 (Lf.load tx r0 + 1);
                     0))
            done)));
  check int "exact count" (n * iters) (Wf.read_tx t (fun tx -> Lf.load tx r0))

let test_wf_result_values_correct () =
  (* Results must be routed back to the right thread even when another
     thread executed the operation. *)
  let t = wf_api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 in
  let n = 6 in
  let results = Array.make n (-1) in
  run_fibers ~seed:13 n (fun i ->
      for _ = 1 to 10 do
        let r =
          Wf.update_tx t (fun tx ->
              let v = Lf.load tx r0 in
              Lf.store tx r0 (v + 1);
              v)
        in
        (* each op returns the pre-increment value: all must be distinct *)
        results.(i) <- r
      done);
  check int "total increments" 60 (Wf.read_tx t (fun tx -> Lf.load tx r0));
  Array.iteri (fun i r -> check bool (Printf.sprintf "fiber %d got result" i) true (r >= 0)) results

(* Thread-slot reuse under the paper's sequence-tag completion rule.
   Process 0 runs in slot 0 and is killed at the first round of [kills];
   at each such round the process then in slot 0 is killed and process
   i + 1 is respawned into the slot, while [helpers] other fibers keep
   committing.  Process i's op bumps root i and returns 1000 + i.  A
   helper that picked up a killed process's op can still commit it after
   the next process published; that commit must neither count as the new
   op's completion nor hand it the old result.  Returns the number of
   times each process's op was applied and the last process's result. *)
let slot_reuse_run ~seed ~kills ~helpers =
  let t = Wf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~max_threads:4 ~ws_cap:64 () in
  let last = List.length kills in
  let bump r tx = Wf.store tx r (Wf.load tx r + 1) in
  let got = ref None in
  (* a process idles after its op so that it is still alive when killed *)
  let proc i () =
    if i > 0 then Sched.set_logical 0;
    let r = Wf.update_tx t (fun tx -> bump (Wf.root t i) tx; 1000 + i) in
    if i = last then got := Some r
    else
      while true do
        Sched.step_point ()
      done
  in
  let helper () =
    while !got = None do
      ignore (Wf.update_tx t (fun tx -> bump (Wf.root t 7) tx; 0))
    done
  in
  let in_slot = ref 0 and next = ref 1 in
  let on_round s =
    match List.nth_opt kills (!next - 1) with
    | Some k when Sched.round s = k ->
        ignore (Sched.kill s !in_slot);
        in_slot := Sched.spawn s (proc !next);
        incr next
    | _ -> ()
  in
  ignore
    (Sched.run ~seed ~cores:2 ~policy:Sched.Random_order ~max_rounds:20_000 ~on_round
       (Array.init (1 + helpers) (fun i -> if i = 0 then proc 0 else helper)));
  (Array.init (last + 1) (fun i -> Wf.read_tx t (fun tx -> Wf.load tx (Wf.root t i))), !got)

let test_wf_slot_reuse () =
  let verdict ~kills applied got =
    let last = List.length kills in
    if Array.exists (fun n -> n > 1) (Array.sub applied 0 last) then
      Some "a killed process's op applied twice"
    else if applied.(last) <> 1 then
      Some (Printf.sprintf "last op applied %d times" applied.(last))
    else if got = None then Some "last op never returned"
    else if got <> Some (1000 + last) then Some "last op got another op's result"
    else None
  in
  let failures = ref [] in
  let run ~seed ~kills ~helpers =
    let applied, got = slot_reuse_run ~seed ~kills ~helpers in
    match verdict ~kills applied got with
    | None -> ()
    | Some why ->
        let ks = String.concat "," (List.map string_of_int kills) in
        failures := Printf.sprintf "seed %d kills %s helpers %d: %s" seed ks helpers why :: !failures
  in
  (* one kill, two helpers committing throughout *)
  for seed = 1 to 12 do
    for k = 2 to 40 do
      run ~seed ~kills:[ k ] ~helpers:2
    done
  done;
  (* the respawned process is killed in turn, possibly inside its own
     takeover, and a third process takes the slot over again *)
  for seed = 1 to 4 do
    for k = 2 to 30 do
      for d = 1 to 4 do
        run ~seed ~kills:[ k; k + d ] ~helpers:2
      done
    done
  done;
  (* liveness: the respawned process runs with no other committer, so its
     own aggregates must carry curTx past its takeover tag *)
  for k = 2 to 40 do
    run ~seed:k ~kills:[ k ] ~helpers:0
  done;
  match List.rev !failures with
  | [] -> ()
  | first :: _ as all -> Alcotest.failf "%d runs wrong; first: %s" (List.length all) first

let test_wf_readonly_fallback () =
  (* The paper's read-only fallback: a read-only function published
     through the operations array (update_tx) must return the same value
     as the wait-free snapshot read_tx running next to it. *)
  let t = Wf.create ~mode:Region.Volatile () in
  let r0 = Wf.root t 0 in
  ignore (Wf.update_tx t (fun tx -> Wf.store tx r0 99; 0));
  let v =
    let out = ref 0 in
    run_fibers ~seed:2 2 (fun i ->
        if i = 0 then out := Wf.read_tx t (fun tx -> Wf.load tx r0)
        else ignore (Wf.update_tx t (fun tx -> Wf.load tx r0)));
    !out
  in
  check int "fallback read returns value" 99 v

(* ------------------------------------------------------------------ *)
(* Real domains: same code under genuine parallelism *)

let test_real_domains_increments api () =
  let t = api.mk ~mode:Region.Volatile ~max_threads:4 () in
  let r0 = Lf.root t 0 in
  Parallel.run
    (Array.init 4 (fun _ () ->
         for _ = 1 to 50 do
           ignore
             (api.update t (fun tx ->
                  Lf.store tx r0 (Lf.load tx r0 + 1);
                  0))
         done));
  check int "exact under real domains" 200 (api.read t (fun tx -> Lf.load tx r0))

(* ------------------------------------------------------------------ *)
(* Edge cases *)

let test_ws_overflow_in_tx api () =
  let t = api.mk ~ws_cap:16 ~size:(1 lsl 14) () in
  check bool "oversized transaction rejected" true
    (match
       api.update t (fun tx ->
           for i = 0 to 63 do
             Lf.store tx (Lf.root t 0 + (i mod 4)) i
           done;
           (* distinct heap addresses to really overflow *)
           let a = Lf.alloc tx 32 in
           for i = 0 to 31 do
             Lf.store tx (a + i) i
           done;
           0)
     with
    | exception Failure _ -> true
    | _ -> false)

let test_zero_is_null api () =
  let t = api.mk () in
  (* fresh roots read as 0 = NULL, and alloc never returns 0 *)
  check int "root starts null" 0 (api.read t (fun tx -> Lf.load tx (Lf.root t 3)));
  let a = api.update t (fun tx -> Lf.alloc tx 2) in
  check bool "alloc non-null" true (a <> 0)

let test_many_small_txs_seq_monotone api () =
  let t = api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 in
  let last = ref 0 in
  for i = 1 to 100 do
    ignore (api.update t (fun tx -> Lf.store tx r0 i; 0));
    let seq, _, _ = Lf.curtx_info t in
    check bool "curtx seq strictly grows" true (seq > !last);
    last := seq
  done

(* ------------------------------------------------------------------ *)
(* Persistence and recovery *)

let test_commit_durable api () =
  let t = api.mk () in
  let r0 = Lf.root t 0 in
  run_fibers 1 (fun _ -> ignore (api.update t (fun tx -> Lf.store tx r0 123; 0)));
  Region.crash (Lf.region t) ();
  api.recover t;
  check int "committed update survives crash" 123
    (api.read t (fun tx -> Lf.load tx r0))

let test_crash_atomicity_sweep api () =
  (* Writers keep the pair (r0, r1) equal.  Crash the system after every
     possible number of rounds and verify the pair is never torn and is one
     of the committed values. *)
  let tears = ref 0 and regressions = ref 0 in
  for stop_round = 1 to 60 do
    let t = api.mk ~size:(1 lsl 14) ~max_threads:8 ~ws_cap:64 () in
    let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
    let body i () =
      for k = 1 to 30 do
        ignore
          (api.update t (fun tx ->
               let x = (i * 1000) + k in
               Lf.store tx r0 x;
               Lf.store tx r1 x;
               0))
      done
    in
    ignore (Sched.run ~seed:stop_round ~max_rounds:stop_round [| body 1; body 2 |]);
    Region.crash (Lf.region t) ();
    api.recover t;
    let a = api.read t (fun tx -> Lf.load tx r0)
    and b = api.read t (fun tx -> Lf.load tx r1) in
    if a <> b then incr tears;
    if not (a = 0 || (a mod 1000 >= 1 && a mod 1000 <= 30)) then incr regressions
  done;
  check int (api.label ^ ": no torn recovered state") 0 !tears;
  check int (api.label ^ ": recovered value is a committed one") 0 !regressions

let test_crash_with_eviction api () =
  (* Same sweep but with adversarial cache eviction: arbitrary extra dirty
     lines persist.  Recovery must still produce a consistent pair. *)
  let tears = ref 0 in
  for stop_round = 1 to 40 do
    let t = api.mk ~size:(1 lsl 14) ~max_threads:8 ~ws_cap:64 () in
    let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
    let body i () =
      for k = 1 to 20 do
        ignore
          (api.update t (fun tx ->
               let x = (i * 1000) + k in
               Lf.store tx r0 x;
               Lf.store tx r1 x;
               0))
      done
    in
    ignore (Sched.run ~seed:(100 + stop_round) ~max_rounds:stop_round [| body 1; body 2 |]);
    Region.crash (Lf.region t) ~evict_fraction:0.5 ~rng:(Rng.create stop_round) ();
    api.recover t;
    let a = api.read t (fun tx -> Lf.load tx r0)
    and b = api.read t (fun tx -> Lf.load tx r1) in
    if a <> b then incr tears
  done;
  check int (api.label ^ ": consistent under eviction") 0 !tears

let test_crash_no_alloc_leak api () =
  (* Transactions allocate and free; crash at arbitrary points must leave
     allocator metadata consistent with the reachable structure. *)
  let bad = ref 0 in
  for stop_round = 5 to 45 do
    let t = api.mk ~size:(1 lsl 14) ~max_threads:8 ~ws_cap:64 () in
    let r0 = Lf.root t 0 in
    let body () =
      for _ = 1 to 20 do
        ignore
          (api.update t (fun tx ->
               let node = Lf.alloc tx 2 in
               Lf.store tx node 1;
               Lf.store tx (node + 1) (Lf.load tx r0);
               Lf.store tx r0 node;
               0));
        ignore
          (api.update t (fun tx ->
               let node = Lf.load tx r0 in
               if node <> 0 then begin
                 Lf.store tx r0 (Lf.load tx (node + 1));
                 Lf.free tx node
               end;
               0))
      done
    in
    ignore (Sched.run ~seed:stop_round ~max_rounds:stop_round [| body; body |]);
    Region.crash (Lf.region t) ();
    api.recover t;
    (* count reachable nodes from r0 *)
    let reachable = ref 0 in
    let p = ref (api.read t (fun tx -> Lf.load tx r0)) in
    while !p <> 0 do
      incr reachable;
      p := api.read t (fun tx -> Lf.load tx (!p + 1))
    done;
    let expected = !reachable * Tm.Tm_alloc.block_cells 2 in
    if Lf.allocated_cells t <> expected then incr bad
  done;
  check int (api.label ^ ": allocator consistent after crash") 0 !bad

let test_recover_idempotent api () =
  let t = api.mk () in
  let r0 = Lf.root t 0 in
  run_fibers 2 (fun i -> ignore (api.update t (fun tx -> Lf.store tx r0 (i + 1); 0)));
  Region.crash (Lf.region t) ();
  api.recover t;
  let v1 = api.read t (fun tx -> Lf.load tx r0) in
  api.recover t;
  api.recover t;
  let v2 = api.read t (fun tx -> Lf.load tx r0) in
  check int "recover is idempotent" v1 v2

(* ------------------------------------------------------------------ *)
(* Cost accounting (the paper's §V-B table, unit-test version) *)

let test_lf_cost_counts () =
  let t = Lf.create () in
  let r = Lf.region t in
  let st = Region.stats r in
  (* warm up: make roots' lines dirty state irrelevant *)
  ignore (Lf.update_tx t (fun tx -> Lf.store tx (Lf.root t 0) 1; 0));
  let nw = 8 in
  let snap = Pstats.copy st in
  ignore
    (Lf.update_tx t (fun tx ->
         for i = 0 to nw - 1 do
           Lf.store tx (Lf.root t i) i
         done;
         0));
  let d = Pstats.diff st snap in
  (* pwb: 1 (request flush before the log is recycled — a deliberate +1
     over the paper, so a crash can never pair a stale-open durable
     request with a torn rewritten log) + ceil((2+Nw)/4) (log lines)
     + 1 (curTx) + data cache lines (flushes are line-deduped: the 8
     contiguous roots start line-aligned, so 8 words = 2 lines) *)
  let log_lines = (2 + nw + 3) / 4 in
  let data_lines = (nw + 3) / 4 in
  check int "pwb count" (2 + log_lines + data_lines) d.Pstats.pwb;
  check int "pfence count" 0 d.Pstats.pfence;
  (* CAS: commit + close-request; DCAS: one per word *)
  check int "cas count" 2 d.Pstats.cas;
  check int "dcas count" nw d.Pstats.dcas;
  check int "one commit" 1 d.Pstats.commits

let test_wf_cost_counts () =
  let t = Wf.create ~max_threads:4 () in
  let r = Lf.region t in
  let st = Region.stats r in
  ignore (Wf.update_tx t (fun tx -> Wf.store tx (Wf.root t 0) 1; 0));
  let nw = 8 in
  let snap = Pstats.copy st in
  ignore
    (Wf.update_tx t (fun tx ->
         for i = 0 to nw - 1 do
           Wf.store tx (Wf.root t i) i
         done;
         0));
  let d = Pstats.diff st snap in
  (* the WF row of the table: one extra pwb (operation publication) on
     top of the LF count (which includes the request flush); the result
     word adds one to Nw, as in the paper.  Data flushes are line-deduped:
     8 root words = 2 lines, and thread 0's result cell is one more *)
  let nw' = nw + 1 in
  let log_lines = (2 + nw' + 3) / 4 in
  let data_lines = ((nw + 3) / 4) + 1 in
  check int "pwb count" (3 + log_lines + data_lines) d.Pstats.pwb;
  check int "pfence count" 0 d.Pstats.pfence;
  check int "dcas count" nw' d.Pstats.dcas;
  check int "one commit" 1 d.Pstats.commits

(* ------------------------------------------------------------------ *)
(* The committer's apply: one DCAS per entry over the word it loaded    *)

(* One LF update, alone in a simulation: its Pstats delta and its
   scheduler steps. *)
let measure_update t f =
  let st = Region.stats (Lf.region t) in
  let snap = Pstats.copy st in
  let sched = Sched.run [| (fun () -> ignore (Lf.update_tx t f)) |] in
  (Pstats.diff st snap, Sched.total_steps sched)

(* k root cells on k distinct cache lines (4 cells per line). *)
let spread_roots t k = Array.init k (fun i -> Lf.root t (4 * i))

(* Outside the apply, a commit issues 3 region loads: curTx, the request
   cell it checks for open, and the request cell [close_request] reads. *)
let commit_loads = 3

let test_apply_cost_loaded () =
  let k = 4 in
  let t = Lf.create ~mode:Region.Volatile ~num_roots:16 () in
  let cells = spread_roots t k in
  ignore (Lf.update_tx t (fun tx -> Array.iter (fun a -> Lf.store tx a 1) cells; 0));
  let d, steps_loaded =
    measure_update t (fun tx ->
        Array.iter (fun a -> Lf.store tx a (Lf.load tx a + 1)) cells;
        0)
  in
  check int "k DCAS" k d.Pstats.dcas;
  check int "no failed DCAS" 0 d.Pstats.dcas_fail;
  check int "k closure loads, zero apply-phase loads" (commit_loads + k) d.Pstats.loads;
  (* the same commit over never-loaded cells: each entry reloads its cell
     before the DCAS, so it pays the k loads in the apply instead *)
  let d, steps_blind =
    measure_update t (fun tx -> Array.iter (fun a -> Lf.store tx a 9) cells; 0)
  in
  check int "never-loaded: k DCAS" k d.Pstats.dcas;
  check int "never-loaded: k apply-phase loads" (commit_loads + k) d.Pstats.loads;
  check int "the loads moved out of the apply, step for step" steps_blind
    steps_loaded;
  Array.iter
    (fun a -> check int "stored value" 9 (Lf.read_tx t (fun tx -> Lf.load tx a)))
    cells

(* The memo is direct-mapped on [addr land 63]: loading [a + 64] evicts
   [a], so storing [a] falls back to a reload while [a + 64] still uses
   its memo word. *)
let test_apply_memo_collision () =
  let t = Lf.create ~mode:Region.Volatile () in
  let blk = Lf.update_tx t (fun tx -> Lf.alloc tx 80) in
  let a = blk and b = blk + 64 in
  ignore (Lf.update_tx t (fun tx -> Lf.store tx a 10; Lf.store tx b 20; 0));
  let r = Lf.region t in
  let before_a = Region.peek r a and before_b = Region.peek r b in
  let d, _ =
    measure_update t (fun tx ->
        let va = Lf.load tx a in
        let vb = Lf.load tx b in
        Lf.store tx a (va + 1);
        Lf.store tx b (vb + 1);
        0)
  in
  check int "two DCAS" 2 d.Pstats.dcas;
  check int "no failed DCAS" 0 d.Pstats.dcas_fail;
  check int "one apply-phase reload, for the evicted address"
    (commit_loads + 2 + 1) d.Pstats.loads;
  check int "a" 11 (Lf.read_tx t (fun tx -> Lf.load tx a));
  check int "a + 64" 21 (Lf.read_tx t (fun tx -> Lf.load tx b));
  check bool "a's predecessor is its pre-commit word" true
    ((Region.peek r a).Word.p == before_a);
  check bool "a + 64's predecessor is its pre-commit word" true
    ((Region.peek r b).Word.p == before_b)

(* A word loaded by an aborted attempt must not become the retry's
   expected word: here it is stale (another fiber overwrote the cell in
   between), so using it would show up as a failed DCAS. *)
let test_apply_memo_not_reused_after_abort () =
  let t = Lf.create ~mode:Region.Volatile ~max_threads:4 () in
  let r0 = Lf.root t 0 in
  ignore (Lf.update_tx t (fun tx -> Lf.store tx r0 1; 0));
  let st = Region.stats (Lf.region t) in
  let snap = Pstats.copy st in
  let attempts = ref 0 and loaded = ref false and other_done = ref false in
  let victim () =
    ignore
      (Lf.update_tx t (fun tx ->
           incr attempts;
           if !attempts = 1 then begin
             ignore (Lf.load tx r0);
             loaded := true;
             while not !other_done do
               Sched.step_point ()
             done;
             (* the cell is now past our snapshot: this load aborts *)
             ignore (Lf.load tx r0)
           end;
           Lf.store tx r0 7;
           0))
  in
  let other () =
    while not !loaded do
      Sched.step_point ()
    done;
    ignore (Lf.update_tx t (fun tx -> Lf.store tx r0 5; 0));
    other_done := true
  in
  ignore (Sched.run [| victim; other |]);
  let d = Pstats.diff st snap in
  check int "the first attempt aborted" 2 !attempts;
  check int "one abort" 1 d.Pstats.aborts;
  check int "no DCAS against the aborted attempt's word" 0 d.Pstats.dcas_fail;
  check int "the retry's store landed" 7 (Lf.read_tx t (fun tx -> Lf.load tx r0))

(* A helper installs the owner's entry first: the owner's DCAS over its
   loaded word fails and falls back to a reload, which finds [s = seq]
   and stops.  The cell holds one new word over the pre-commit word, and
   a reader pinned before the commit still resolves the old value. *)
let test_apply_helper_first () =
  let t = Lf.create ~mode:Region.Volatile ~max_threads:4 () in
  let r = Lf.region t in
  let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
  ignore (Lf.update_tx t (fun tx -> Lf.store tx r0 1; 0));
  let before = Region.peek r r0 in
  let seq = (let s, _, _ = Lf.curtx_info t in s + 1) in
  let st = Region.stats r in
  let snap = Pstats.copy st in
  let pinned = ref false and owner_done = ref false in
  let first = ref (-1) and second = ref (-1) in
  let owner () =
    while not !pinned do
      Sched.step_point ()
    done;
    ignore (Lf.update_tx t (fun tx -> Lf.store tx r0 (Lf.load tx r0 + 1); 0));
    owner_done := true
  in
  let helper () =
    (* wait for the owner's commit, then run into it *)
    while
      let s, _, open_ = Lf.curtx_info t in
      not (open_ && s = seq)
    do
      Sched.step_point ()
    done;
    ignore (Lf.update_tx t (fun tx -> Lf.store tx r1 1; 0))
  in
  let reader () =
    ignore
      (Lf.read_tx t (fun tx ->
           first := Lf.load tx r0;
           pinned := true;
           while not !owner_done do
             Sched.step_point ()
           done;
           second := Lf.load tx r0;
           0))
  in
  ignore
    (Sched.run_controlled ~pick:(starve_open_committer t) [| owner; helper; reader |]);
  let d = Pstats.diff st snap in
  check int "the helper applied the owner's write-set" 1 d.Pstats.helps;
  check int "the owner's DCAS lost to the helper's" 1 d.Pstats.dcas_fail;
  let w = Region.peek r r0 in
  check int "new value" 2 w.Word.v;
  check int "new word at the commit's seq" seq w.Word.s;
  check bool "one new word, directly over the pre-commit word" true
    (w.Word.p == before);
  check int "pinned reader, before the commit" 1 !first;
  check int "pinned reader, after the apply" 1 !second

(* ------------------------------------------------------------------ *)
(* In-cell version chains (DESIGN.md §13)                              *)

module Core0 = Onefile.Core0
module Sh_lf = Tm.Tm_shard.Make (Lf)

(* Predecessors behind a cell word, walked step-free. *)
let chain_preds (w : Word.t) =
  let rec go (n : Word.t) k = if n == Word.nil then k else go n.Word.p (k + 1) in
  go w.Word.p 0

(* A reader pinned before a burst of overwrites of one cell by other
   fibers still resolves the pre-burst value.  40 overwrites also cross
   the committers' floor refresh, which must respect the pin; and a later
   reader that resolves the newest word in between must not cut away the
   version the older pin still needs. *)
let test_pinned_reader_many_overwrites api () =
  let t = api.mk ~mode:Region.Volatile ~max_threads:8 () in
  let r0 = Lf.root t 0 in
  ignore (api.update t (fun tx -> Lf.store tx r0 100; 0));
  let pinned = ref false and writers_done = ref 0 and late_done = ref false in
  let first = ref (-1) and second = ref (-1) and late = ref (-1) in
  let chain = ref 0 in
  let reader () =
    ignore
      (api.read t (fun tx ->
           first := Lf.load tx r0;
           pinned := true;
           while not !late_done do
             Sched.step_point ()
           done;
           chain := chain_preds (Region.peek (Lf.region t) r0);
           second := Lf.load tx r0;
           0))
  in
  let writer k () =
    while not !pinned do
      Sched.step_point ()
    done;
    for i = 1 to 20 do
      ignore (api.update t (fun tx -> Lf.store tx r0 ((1000 * k) + i); 0))
    done;
    incr writers_done
  in
  let late_reader () =
    while !writers_done < 2 do
      Sched.step_point ()
    done;
    late := api.read t (fun tx -> Lf.load tx r0);
    late_done := true
  in
  ignore (Sched.run ~seed:3 [| reader; writer 1; writer 2; late_reader |]);
  check int "first load under the pin" 100 !first;
  check bool "a later reader sees a writer's last value" true
    (!late = 1020 || !late = 2020);
  check bool ">= 5 overwrites kept behind the head" true (!chain >= 5);
  check int "pinned reader still reads the pre-value" 100 !second

(* The memory bound: once pin_floor has passed every write, one more
   overwrite of a cell leaves it with at most one predecessor, and no heap
   cell anywhere holds more. *)
let test_chain_bound_after_floor api () =
  let t = api.mk ~mode:Region.Volatile ~max_threads:8 () in
  let cells = 16 in
  let blk = api.update t (fun tx -> Lf.alloc tx cells) in
  ignore
    (Sched.run ~seed:9
       (Array.init 4 (fun f () ->
            for k = 1 to 12 do
              if f < 2 then
                ignore
                  (api.update t (fun tx ->
                       let a = blk + (((f * 7) + k) mod cells) in
                       Lf.store tx a (Lf.load tx a + 1);
                       0))
              else
                ignore
                  (api.read t (fun tx ->
                       let s = ref 0 in
                       for i = 0 to cells - 1 do
                         s := !s + Lf.load tx (blk + i)
                       done;
                       !s))
            done)));
  (* more than one floor period of commits elsewhere: the committers'
     floor refresh now passes every write above *)
  for k = 1 to 64 do
    ignore (api.update t (fun tx -> Lf.store tx (Lf.root t 0) k; 0))
  done;
  ignore
    (api.update t (fun tx ->
         for i = 0 to cells - 1 do
           Lf.store tx (blk + i) (Lf.load tx (blk + i) + 1)
         done;
         0));
  let r = Lf.region t in
  let worst = ref 0 in
  for a = (Core0.layout t).Check.Tmcheck.heap_base to Region.size r - 1 do
    worst := max !worst (chain_preds (Region.peek r a))
  done;
  check int "at most one predecessor per heap cell" 1 !worst;
  (* readers cut too: once the floor has passed the last write, one
     snapshot read of a cell leaves it with no predecessor at all *)
  for k = 1 to 64 do
    ignore (api.update t (fun tx -> Lf.store tx (Lf.root t 0) k; 0))
  done;
  ignore
    (api.read t (fun tx ->
         for i = 0 to cells - 1 do
           ignore (Lf.load tx (blk + i))
         done;
         0));
  for i = 0 to cells - 1 do
    check int "no predecessor after a read past the floor" 0
      (chain_preds (Region.peek r (blk + i)))
  done

(* Two helpers racing to apply the same committed write-set — every
   interleaving within two preemptions — leave one chain per cell: the
   head at the new seq directly over the overwritten word, no duplicate
   node, and the overwritten word cut behind itself. *)
let test_racing_helpers_one_chain () =
  let raced = ref false in
  let execute ~prefix =
    let t =
      Lf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~max_threads:4 ~ws_cap:16 ()
    in
    let r = Lf.region t in
    let addrs = Array.init 4 (fun i -> Lf.root t i) in
    ignore (Lf.update_tx t (fun tx -> Array.iter (fun a -> Lf.store tx a 1) addrs; 0));
    let before = Array.map (Region.peek r) addrs in
    let ws = Writeset.create 16 in
    Array.iteri (fun i a -> Writeset.put ws a (10 + i)) addrs;
    let ct = Core0.read_curtx t in
    let seq = ct.Word.v + 1 in
    Core0.publish_log t ~me:2 ws ~seq;
    if not (Region.cas1 r Core0.curtx_cell ct (Word.make seq 2)) then
      Alcotest.fail "commit CAS";
    let ct = Region.peek r Core0.curtx_cell in
    let st = Region.stats r in
    let fails0 = st.Pstats.dcas_fail in
    let recd =
      Explore.run ~pick:(Explore.pick_prefix ~prefix)
        [| (fun () -> Core0.help t ~me:0 ct); (fun () -> Core0.help t ~me:1 ct) |]
    in
    if st.Pstats.dcas_fail > fails0 then raced := true;
    let bad = ref None in
    Array.iteri
      (fun i a ->
        let w = Region.peek r a in
        if
          not
            (w.Word.s = seq && w.Word.v = 10 + i && w.Word.p == before.(i)
            && before.(i).Word.p == Word.nil)
        then
          bad :=
            Some (Format.asprintf "cell %d: chain %a -> %a" a Word.pp w Word.pp w.Word.p))
      addrs;
    (recd, !bad)
  in
  let cov, failure = Explore.enumerate ~preemption_bound:2 ~execute () in
  (match failure with Some m -> Alcotest.fail m | None -> ());
  check bool "schedule space exhausted" true cov.Explore.exhausted;
  check bool "some schedule made the helpers' DCASes collide" true !raced

(* Cross-shard snapshot audits over LF shards stay exact while a split and
   a merge move accounts between shards under transfer traffic. *)
let shard_audit_run ~seed =
  let n = 2 and span = 4096 in
  let device = Region.create ~mode:Region.Volatile (n * span) in
  let views = Region.partition device (List.init n (fun _ -> span)) in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Lf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ~num_roots:8 ())
         views)
  in
  let tm = Sh_lf.make ~max_threads:8 ~ro_snapshot:Lf.snapshot_ops shards in
  let accounts = 8 and init = 100 in
  for i = 0 to accounts - 1 do
    ignore (Sh_lf.update_tx tm (fun tx -> Sh_lf.store tx (Sh_lf.root tm i) init; 0))
  done;
  let sum () =
    Sh_lf.read_tx tm (fun tx ->
        let s = ref 0 in
        for i = 0 to accounts - 1 do
          s := !s + Sh_lf.load tx (Sh_lf.root tm i)
        done;
        !s)
  in
  let running = ref 4 and audits = ref 0 and wrong = ref 0 in
  let worker w () =
    for i = 1 to 30 do
      let a = (w + i) mod accounts and b = (w + (2 * i) + 1) mod accounts in
      if a <> b then
        ignore
          (Sh_lf.update_tx tm (fun tx ->
               let ra = Sh_lf.root tm a and rb = Sh_lf.root tm b in
               let va = Sh_lf.load tx ra and vb = Sh_lf.load tx rb in
               Sh_lf.store tx ra (va - 3);
               Sh_lf.store tx rb (vb + 3);
               0))
    done;
    decr running
  in
  let auditor () =
    while !running > 0 do
      if sum () <> accounts * init then incr wrong;
      incr audits
    done
  in
  let migrator () =
    (match Sh_lf.split tm ~src:0 ~dst:1 with
    | `Ok -> ()
    | `Busy | `Invalid _ -> Alcotest.fail "split under traffic");
    for _ = 1 to 20 do
      Sched.step_point ()
    done;
    (match Sh_lf.merge tm ~src:1 ~dst:0 with
    | `Ok -> ()
    | `Busy | `Invalid _ -> Alcotest.fail "merge under traffic");
    decr running
  in
  ignore
    (Sched.run ~seed
       (Array.concat
          [ Array.init 3 (fun w () -> worker w ()); [| auditor; auditor; migrator |] ]));
  check int "every audit saw the exact total" 0 !wrong;
  check bool "audits ran during the traffic" true (!audits > 0);
  check int "total after the round trip" (accounts * init) (sum ());
  check int "map table empty after split + merge" 0
    (Array.length (Sh_lf.map_entries tm))

let test_shard_audits_across_migration () =
  for seed = 1 to 6 do
    shard_audit_run ~seed
  done

let () =
  let seq_cases =
    List.concat_map
      (fun api ->
        [
          Alcotest.test_case (api.label ^ ": root store/load") `Quick (test_root_store_load api);
          Alcotest.test_case (api.label ^ ": read-after-write") `Quick (test_read_after_write api);
          Alcotest.test_case (api.label ^ ": empty update") `Quick (test_empty_update_is_readonly api);
          Alcotest.test_case (api.label ^ ": read-tx rejects store") `Quick (test_store_in_read_tx_rejected api);
          Alcotest.test_case (api.label ^ ": alloc in tx") `Quick (test_alloc_in_tx api);
        ])
      apis
  in
  let conc_cases =
    List.concat_map
      (fun api ->
        [
          Alcotest.test_case (api.label ^ ": increments") `Quick (test_concurrent_increments api);
          Alcotest.test_case (api.label ^ ": snapshots") `Quick (test_snapshot_consistency api);
          Alcotest.test_case (api.label ^ ": helping") `Quick (test_helping_occurs api);
          Alcotest.test_case (api.label ^ ": dead committer") `Quick
            (test_dead_committer_completed api);
          Alcotest.test_case (api.label ^ ": transfers") `Quick (test_transfer_invariant api);
          Alcotest.test_case (api.label ^ ": alloc/free") `Quick (test_concurrent_alloc_free api);
          Alcotest.test_case (api.label ^ ": real domains") `Quick
            (test_real_domains_increments api);
          Alcotest.test_case (api.label ^ ": ws overflow") `Quick
            (test_ws_overflow_in_tx api);
          Alcotest.test_case (api.label ^ ": null pointer") `Quick
            (test_zero_is_null api);
          Alcotest.test_case (api.label ^ ": seq monotone") `Quick
            (test_many_small_txs_seq_monotone api);
        ])
      apis
  in
  let crash_cases =
    List.concat_map
      (fun api ->
        [
          Alcotest.test_case (api.label ^ ": commit durable") `Quick (test_commit_durable api);
          Alcotest.test_case (api.label ^ ": crash atomicity sweep") `Slow (test_crash_atomicity_sweep api);
          Alcotest.test_case (api.label ^ ": crash with eviction") `Slow (test_crash_with_eviction api);
          Alcotest.test_case (api.label ^ ": crash alloc leak") `Slow (test_crash_no_alloc_leak api);
          Alcotest.test_case (api.label ^ ": recover idempotent") `Quick (test_recover_idempotent api);
        ])
      apis
  in
  ignore foreach_api;
  Alcotest.run "onefile"
    [
      ( "writeset",
        [
          Alcotest.test_case "put/find/replace" `Quick test_ws_put_find;
          Alcotest.test_case "hash transition" `Quick test_ws_hash_transition;
          Alcotest.test_case "clear and reuse" `Quick test_ws_clear_reuse;
          Alcotest.test_case "overflow" `Quick test_ws_overflow;
          Alcotest.test_case "iteration order" `Quick test_ws_iteration_order;
        ] );
      ("sequential", seq_cases);
      ("concurrent", conc_cases);
      ( "wait-free",
        [
          Alcotest.test_case "hostile schedule completes" `Quick
            test_wf_all_ops_complete_hostile_schedule;
          Alcotest.test_case "results routed" `Quick test_wf_result_values_correct;
          Alcotest.test_case "read-only fallback" `Quick test_wf_readonly_fallback;
          Alcotest.test_case "slot reuse after kill" `Quick test_wf_slot_reuse;
        ] );
      ("crash", crash_cases);
      ( "version-chains",
        List.concat_map
          (fun api ->
            [
              Alcotest.test_case (api.label ^ ": pinned reader, many overwrites") `Quick
                (test_pinned_reader_many_overwrites api);
              Alcotest.test_case (api.label ^ ": chain bound after floor") `Quick
                (test_chain_bound_after_floor api);
            ])
          apis
        @ [
            Alcotest.test_case "racing helpers, one chain" `Quick
              test_racing_helpers_one_chain;
            Alcotest.test_case "shard audits across split/merge" `Quick
              test_shard_audits_across_migration;
          ] );
      ( "costs",
        [
          Alcotest.test_case "lock-free table row" `Quick test_lf_cost_counts;
          Alcotest.test_case "wait-free table row" `Quick test_wf_cost_counts;
        ] );
      ( "apply",
        [
          Alcotest.test_case "loaded cells: no apply-phase loads" `Quick
            test_apply_cost_loaded;
          Alcotest.test_case "memo collision falls back" `Quick
            test_apply_memo_collision;
          Alcotest.test_case "aborted attempt's memo unused" `Quick
            test_apply_memo_not_reused_after_abort;
          Alcotest.test_case "helper installs first" `Quick test_apply_helper_first;
        ] );
    ]
