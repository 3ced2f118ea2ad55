(* Shared core of the OneFile algorithms (internal module).

   Region layout (cells; one cell = one TMType = value + seq):

     0..3                       null pointer + padding (cell 0 is NULL)
     4                          curTx            (v = seq, s = tid)
     ws_base + t*ws_stride      per-thread log:  request | numStores | entries
     wf_base + t                results[t]       (wait-free; packed, 4 per line)
     wf_base + max_threads + t  operations[t]    (wait-free publication word)
     roots_base ..              user roots
     meta_base ..               allocator metadata
     heap_base .. size          transactional heap

   Everything below roots_base is algorithm metadata; everything from
   roots_base up survives crashes via the ordinary transactional protocol.

   Persistence ordering note: the paper flushes curTx right after the
   commit CAS (step 7) and any thread entering the apply phase (steps 8-10)
   has done so too.  We make this explicit: [help] pwbs curTx before
   applying, so no data word can become durable with a sequence newer than
   the durable curTx — otherwise a crash could resurrect a half-persisted
   transaction that recovery no longer knows about.

   That note, and the rest of the correctness argument, are checkable: the
   [Check.Tmcheck] sanitizer (attached with [sanitize]) observes every
   region access plus the transaction-lifecycle hooks below and validates
   seq monotonicity, persistence ordering, apply-before-close, opacity,
   hazard-era discipline and allocator discipline on every step.

   Hot-path discipline: a steady-state load or store must not touch the
   minor heap — lookups are sentinel-returning ([Writeset.find_idx]),
   checker hooks are inlined matches rather than closure-taking helpers,
   telemetry uses pre-resolved handles, and the interposition ops record
   is built once per thread slot.  tm_lint's hotpath rule keeps it that
   way. *)
(* relaxed-ok: curtx_info/allocated_cells are step-free debug views, usable
   from a scheduler on_round hook without perturbing the schedule; the
   ro.snapshot_lag sample in snap_read_tx reads ro_stable step-free so
   that attaching telemetry never changes the schedule and a detached
   sink costs no step; snap_resolve reads pin_floor step-free for its
   read-side cut, where a stale (lower) floor is still sound. *)
(* mutable-ok: tx records and the desc freed flag are confined to their
   owning fiber / the reclamation epoch; the checker slot is written from
   sequential set-up code only; the per-thread flush-dedup scratch and the
   [wf_busy] takeover mirror are confined to their thread slot; so are a
   tx's load memo ([memo_addrs]/[memo_words]/[memo_gens]) and its [olds]
   array, written only by the fiber running that tx slot. *)

module Region = Pmem.Region
module Word = Pmem.Word
module Pstats = Pmem.Pstats
module Hazard_eras = Reclaim.Hazard_eras
open Runtime

exception Abort = Tm.Tm_intf.Abort

let curtx_cell = 4
let round4 n = (n + 3) land lnot 3

module Tmcheck = Check.Tmcheck

(* Epoch bookkeeping behind wait-free snapshot reads (DESIGN.md §13).
   The versions themselves live in the cells: every data word carries the
   word it overwrote ([Word.p]), so a pinned reader walks the cell's own
   chain.  [ro_stable] is the newest fully applied commit sequence — the
   epoch a new reader pins.  [pin_floor] is a sound lower bound on the
   epoch of every active and future reader; a chain node with [s] below
   it is needed by no reader once a newer node also sits at or below it,
   so writers cut chains there.  [pin_watermark] bounds the floor scan:
   it is a monotone upper bound (exclusive) on the slot of every thread
   that has ever pinned, so write-only workloads recompute the floor
   without touching a single era slot.  [pinned_once] is the
   thread-confined "already registered" flag behind it, and [pin_mine]
   mirrors the era this slot last published through [snap_pin] (0 =
   none) so a transaction driver reusing the slot of a fiber that was
   abandoned mid-read can release the orphaned pin without paying a step
   in the common case (mutable-ok: cell [i] of either array is written
   only by thread [i], plus sequential recovery). *)
type epochs = {
  ro_stable : int Satomic.t;
  pin_floor : int Satomic.t;
  pin_watermark : int Satomic.t;
  pinned_once : bool array;
  pin_mine : int array;
}

type tx = {
  txregion : Region.t;
  txalloc : Tm.Tm_alloc.t;
  mutable start_seq : int;
  mutable read_only : bool;
  mutable snap_epoch : int; (* pinned snapshot epoch; -1 = not a snap read *)
  ws : Writeset.t;
  (* Load memo: a 64-slot direct-mapped record of the words this attempt
     loaded, stamped with [memo_gen] so starting an attempt is one bump.
     [olds.(i)] is the word write-set entry [i] overwrites, copied from
     the memo when [store] appends the entry ([Word.nil] on a miss);
     [apply_own] DCASes against it instead of reloading the cell. *)
  memo_addrs : int array;
  memo_words : Word.t array;
  memo_gens : int array;
  mutable memo_gen : int;
  olds : Word.t array;
  txchk : Tmcheck.t option ref; (* shared with the owning instance *)
  txfloor : int Satomic.t; (* the instance's pin_floor, for read-side cuts *)
  ops : Tm.Tm_intf.alloc_ops; (* interposition record, built once per slot *)
}

(* A published wait-free operation.  It is complete once its owner's
   result cell carries a sequence greater than [tag] (see [aggregate]). *)
type desc = { opid : int; tag : int; fn : tx -> int; mutable freed : bool }

(* Test-only fault injection: each flag re-opens a specific, once-real bug
   so the explorer's planted-bug self-checks can prove the harness would
   catch it.  All flags default to false and must never be set outside
   tests. *)
type faults = {
  mutable drop_publish_pwb : bool;
      (* skip the request-cell flush at the top of [publish_log] — the PR 1
         durability hole (volatile close vs. log recycling) *)
  mutable stale_commit_snapshot : bool;
      (* refresh curTx right before the commit CAS, ignoring everything
         committed since the snapshot: a classic lost update *)
  mutable stale_dedup_flush : bool;
      (* never advance the flush-dedup generation: lines flushed for an
         earlier transaction count as "already flushed" for later ones,
         so a committed write can silently skip its data pwb *)
  mutable stale_ro_snapshot : bool;
      (* pin snapshot readers at the raw curTx sequence instead of the
         fully-applied ro_stable epoch: a reader then observes a
         half-published epoch and mixes pre- and post-transaction words *)
}

type t = {
  region : Region.t;
  instance : string; (* telemetry key prefix; "" = sole instance *)
  max_threads : int;
  ws_cap : int;
  ws_stride : int;
  ws_base : int;
  wf_base : int;
  roots_base : int;
  num_roots : int;
  heap_base : int;
  ws_threshold : int; (* Writeset linear/hash switchover, instance config *)
  alloc : Tm.Tm_alloc.t;
  epochs : epochs;
  txs : tx array;
  (* wait-free state *)
  pending : desc option Satomic.t array;
  wf_busy : bool array; (* slot t published an op it has not yet returned *)
  he : desc Hazard_eras.t;
  next_opid : int Satomic.t;
  (* per-thread scratch used when helping to apply a foreign write-set *)
  scratch_addrs : int array array;
  scratch_vals : int array array;
  (* per-thread cache-line flush dedup: a small direct-mapped seen-set of
     line numbers, generation-stamped so starting a new flush pass is one
     integer bump instead of a clear *)
  seen_lines : int array array;
  seen_gens : int array array;
  line_gen : int array;
  checker : Tmcheck.t option ref;
  tele : Telemetry.sink; (* no-op counters until a registry is attached *)
  (* pre-resolved telemetry handles (no string hash on the hot paths) *)
  c_commits : Telemetry.handle;
  c_ro_commits : Telemetry.handle;
  c_aborts : Telemetry.handle;
  c_helps : Telemetry.handle;
  c_help_exits : Telemetry.handle;
  c_recycles : Telemetry.handle;
  c_wf_published : Telemetry.handle;
  c_wf_aggregated : Telemetry.handle;
  c_rec_runs : Telemetry.handle;
  c_rec_helped : Telemetry.handle;
  c_ro_pins : Telemetry.handle;
  s_latency : Telemetry.span_handle;
  s_ro_lag : Telemetry.span_handle;
  faults : faults;
}

let req_cell inst tid = inst.ws_base + (tid * inst.ws_stride)
let nstores_cell inst tid = req_cell inst tid + 1
let entry_cell inst tid i = req_cell inst tid + 2 + i
let res_cell inst tid = inst.wf_base + tid
let op_cell inst tid = inst.wf_base + inst.max_threads + tid
let stats inst = Region.stats inst.region

(* ------------------------------------------------------------------ *)
(* In-cell version chains, reader side (DESIGN.md §13)                  *)

(* The first node of the chain starting at [w] whose sequence is at most
   [epoch], or [Word.nil] when the chain ends first.  Plain reads of
   immutable fields plus the racy [p] link: no scheduling step, no
   allocation. *)
let rec chain_find (w : Word.t) epoch =
  (* flowlint: bounded each hop strictly lowers s, and the chain ends at Word.nil *)
  if w == Word.nil || w.Word.s <= epoch then w else chain_find w.Word.p epoch

(* Resolve [addr] at snapshot epoch [epoch]: one shared load, then a
   step-free walk down the cell's version chain.  Never aborts, never
   retries, never flushes.  The version is guaranteed present: the word a
   put overwrites is published as the new word's predecessor by the same
   DCAS, and a chain is cut only behind a node with
   [s <= pin_floor <= every pinned epoch].

   The reader cuts too: once the node it resolved sits at or below
   [pin_floor] it is the node covering the floor, so nothing behind it is
   needed by anyone — the same cut a writer makes, for cells that are read
   but not rewritten.  The floor is read step-free; a stale read only
   returns a lower (still sound) floor, since [pin_floor] never falls. *)
let snap_resolve ~region ~chk ~floor epoch addr =
  let w = Region.load region addr in
  let u = if w.Word.s <= epoch then w else chain_find w.Word.p epoch in
  if u == Word.nil then
    raise (Tm.Tm_intf.Snapshot_version_missing { addr; epoch });
  if u.Word.s <= Satomic.get_relaxed floor then Word.cut u;
  (match !chk with
  | None -> ()
  | Some c -> Tmcheck.tx_load c ~addr ~v:u.Word.v ~s:u.Word.s);
  u.Word.v

(* ------------------------------------------------------------------ *)
(* Interposition — defined before [create] so each tx slot can cache its
   ops record instead of rebuilding two closures per allocator call.     *)

let memo_mask = 63 (* load memo has 64 direct-mapped slots *)

let load_word tx addr =
  let w = Region.load tx.txregion addr in
  if w.Word.s > tx.start_seq then raise Abort;
  let k = addr land memo_mask in
  tx.memo_addrs.(k) <- addr;
  tx.memo_words.(k) <- w;
  tx.memo_gens.(k) <- tx.memo_gen;
  (match !(tx.txchk) with
  | None -> ()
  | Some c -> Tmcheck.tx_load c ~addr ~v:w.Word.v ~s:w.Word.s);
  w

let load_shared tx addr = (load_word tx addr).Word.v

let load tx addr =
  (* flowlint: ok unpinned-snapshot-load the snap_epoch guard means snap_read_tx pinned this epoch and unpins only after the closure returns *)
  if tx.snap_epoch >= 0 then
    snap_resolve ~region:tx.txregion ~chk:tx.txchk ~floor:tx.txfloor
      tx.snap_epoch addr
  else if tx.read_only then load_shared tx addr
  else
    let i = Writeset.find_idx tx.ws addr in
    if i >= 0 then Writeset.val_at tx.ws i else load_shared tx addr

(* The word this attempt loaded from [addr], or [Word.nil] if the memo
   does not hold it (never loaded, or evicted by a colliding address). *)
let memo_find tx addr =
  let k = addr land memo_mask in
  if tx.memo_gens.(k) = tx.memo_gen && tx.memo_addrs.(k) = addr then
    tx.memo_words.(k)
  else Word.nil

let store tx addr v =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  (match !(tx.txchk) with None -> () | Some c -> Tmcheck.tx_store c ~addr);
  let n = Writeset.size tx.ws in
  Writeset.put tx.ws addr v;
  if Writeset.size tx.ws > n then tx.olds.(n) <- memo_find tx addr

(* Start a fresh attempt: empty write-set, and no memo entry of an
   earlier attempt can match. *)
let begin_attempt tx =
  Writeset.clear tx.ws;
  tx.memo_gen <- tx.memo_gen + 1

let create ?mode ?size ?region:backing ?(instance = "") ?(max_threads = 64)
    ?(ws_cap = 2048) ?(num_roots = 8) ?linear_threshold () =
  let region =
    match backing with
    | Some r ->
        (match mode with
        | Some m when m <> Region.mode r ->
            invalid_arg "Core0.create: ~mode contradicts ~region"
        | _ -> ());
        (match size with
        | Some s when s <> Region.size r ->
            invalid_arg "Core0.create: ~size contradicts ~region"
        | _ -> ());
        r
    | None ->
        Region.create
          ~mode:(Option.value mode ~default:Region.Persistent)
          ~id:instance
          (Option.value size ~default:(1 lsl 18))
  in
  let mode = Region.mode region and size = Region.size region in
  (* pre-resolved handle names carry the instance id so two instances
     attached to one registry stay separable ("shard3.tx.commits") *)
  let key n = if instance = "" then n else instance ^ "." ^ n in
  let ws_stride = round4 (2 + ws_cap) in
  let ws_base = 8 in
  let wf_base = ws_base + (max_threads * ws_stride) in
  let roots_base = round4 (wf_base + (2 * max_threads)) in
  let meta_base = roots_base + num_roots in
  let heap_base = meta_base + Tm.Tm_alloc.meta_cells in
  if heap_base + 64 > size then invalid_arg "Core0.create: region too small";
  let alloc = Tm.Tm_alloc.create ~meta_base ~heap_base ~heap_end:size in
  let checker = ref None in
  let free_desc d =
    d.freed <- true;
    match !checker with
    | Some c -> Tmcheck.closure_free c ~opid:d.opid
    | None -> ()
  in
  let tele = Telemetry.sink () in
  let epochs =
    {
      ro_stable = Satomic.make 1;
      pin_floor = Satomic.make 1;
      pin_watermark = Satomic.make 0;
      pinned_once = Array.make max_threads false;
      pin_mine = Array.make max_threads 0;
    }
  in
  let mk_tx () =
    let rec tx =
      {
        txregion = region;
        txalloc = alloc;
        start_seq = 0;
        read_only = true;
        snap_epoch = -1;
        ws = Writeset.create ?linear_threshold ws_cap;
        memo_addrs = Array.make (memo_mask + 1) (-1);
        memo_words = Array.make (memo_mask + 1) Word.nil;
        memo_gens = Array.make (memo_mask + 1) 0;
        memo_gen = 1;
        olds = Array.make ws_cap Word.nil;
        txchk = checker;
        txfloor = epochs.pin_floor;
        ops =
          {
            Tm.Tm_intf.aload = (fun a -> load tx a);
            astore = (fun a v -> store tx a v);
          };
      }
    in
    tx
  in
  let txs = Array.init max_threads (fun _ -> mk_tx ()) in
  let inst =
    {
      region;
      instance;
      max_threads;
      ws_cap;
      ws_stride;
      ws_base;
      wf_base;
      roots_base;
      num_roots;
      heap_base;
      ws_threshold = Writeset.threshold txs.(0).ws;
      alloc;
      epochs;
      txs;
      pending = Array.init max_threads (fun _ -> Satomic.make None);
      wf_busy = Array.make max_threads false;
      he = Hazard_eras.create ~max_threads ~free:free_desc ();
      next_opid = Satomic.make 0;
      scratch_addrs = Array.init max_threads (fun _ -> Array.make ws_cap 0);
      scratch_vals = Array.init max_threads (fun _ -> Array.make ws_cap 0);
      seen_lines = Array.init max_threads (fun _ -> Array.make 64 (-1));
      seen_gens = Array.init max_threads (fun _ -> Array.make 64 0);
      line_gen = Array.make max_threads 0;
      checker;
      tele;
      c_commits = Telemetry.counter tele (key "tx.commits");
      c_ro_commits = Telemetry.counter tele (key "tx.ro_commits");
      c_aborts = Telemetry.counter tele (key "tx.aborts");
      c_helps = Telemetry.counter tele (key "tx.helps");
      c_help_exits = Telemetry.counter tele (key "tx.help_exits");
      c_recycles = Telemetry.counter tele (key "log.recycles");
      c_wf_published = Telemetry.counter tele (key "wf.published");
      c_wf_aggregated = Telemetry.counter tele (key "wf.aggregated");
      c_rec_runs = Telemetry.counter tele (key "recovery.runs");
      c_rec_helped = Telemetry.counter tele (key "recovery.helped");
      c_ro_pins = Telemetry.counter tele (key "tx.ro_epoch_pins");
      s_latency = Telemetry.span tele (key "tx.latency");
      s_ro_lag = Telemetry.span tele (key "ro.snapshot_lag");
      faults =
        {
          drop_publish_pwb = false;
          stale_commit_snapshot = false;
          stale_dedup_flush = false;
          stale_ro_snapshot = false;
        };
    }
  in
  (* initial state: seq 1 committed by nobody; requests closed *)
  Region.store region curtx_cell (Word.make 1 0);
  let init_ops =
    {
      Tm.Tm_intf.aload = (fun a -> (Region.load region a).Word.v);
      astore = (fun a v -> Region.store region a (Word.make v 0));
    }
  in
  Tm.Tm_alloc.init inst.alloc init_ops;
  (match mode with
  | Region.Persistent ->
      Region.pwb_range region 0 heap_base;
      Region.pfence region
  | Region.Volatile -> ());
  Pstats.reset (stats inst);
  inst

let linear_threshold inst = inst.ws_threshold
let instance inst = inst.instance

(* ------------------------------------------------------------------ *)
(* Sanitizer attachment                                                 *)

let layout inst =
  {
    Tmcheck.curtx_cell;
    max_threads = inst.max_threads;
    ws_cap = inst.ws_cap;
    req_cell = req_cell inst;
    nstores_cell = nstores_cell inst;
    entry_cell = entry_cell inst;
    req_tid_of =
      (fun a ->
        if a >= inst.ws_base && a < inst.wf_base && (a - inst.ws_base) mod inst.ws_stride = 0
        then Some ((a - inst.ws_base) / inst.ws_stride)
        else None);
    data_base = inst.roots_base;
    heap_base = inst.heap_base;
  }

let set_checker inst c =
  inst.checker := c;
  Region.set_observer inst.region
    (match c with Some c -> Some (Tmcheck.on_event c) | None -> None)

let sanitize ?mode inst =
  let c = Tmcheck.create ?mode (layout inst) inst.region in
  set_checker inst (Some c);
  c

let desanitize inst = set_checker inst None
let checker inst = !(inst.checker)
let with_chk r f = match !r with Some c -> f c | None -> ()

(* ------------------------------------------------------------------ *)
(* Telemetry attachment                                                 *)

let attach_telemetry inst t =
  Telemetry.attach inst.tele t;
  Region.attach_telemetry inst.region t;
  Hazard_eras.set_telemetry inst.he (Some t)

let detach_telemetry inst =
  Telemetry.detach inst.tele;
  Hazard_eras.set_telemetry inst.he None

let telemetry inst = !(inst.tele)
let faults inst = inst.faults

let read_curtx inst = Region.load inst.region curtx_cell

let is_open inst (ct : Word.t) =
  (Region.load inst.region (req_cell inst ct.Word.s)).Word.v = ct.Word.v

(* ------------------------------------------------------------------ *)
(* In-cell version chains, writer side (DESIGN.md §13)                  *)

(* Monotone CAS-max bump of the fully-applied epoch. *)
let stable_bump epochs s =
  (* flowlint: bounded a CAS miss means another thread raised ro_stable concurrently, which is progress toward the target *)
  let rec go () =
    let cur = Satomic.get epochs.ro_stable in
    if cur < s then
      if not (Satomic.compare_and_set epochs.ro_stable cur s) then go ()
  in
  go ()

(* Recompute [pin_floor] as min(published reader eras, ro_stable).
   [ro_stable] must be read BEFORE the era scan: a reader is pin-ordered
   as (register in pin_watermark; e := ro_stable; publish era e;
   r := ro_stable; read at r).  If the scan sees its era, the floor is
   <= e <= r.  If it does not — including when the watermark cut the
   scan short of its slot — the reader registered or published after
   that was checked, hence read ro_stable after we read [s0], so its
   epoch r >= s0 >= the floor.  Either way every reader's epoch is >= the
   floor.  Committers call this every [floor_period] commits. *)
let refresh_floor inst =
  let epochs = inst.epochs in
  let s0 = Satomic.get epochs.ro_stable in
  let wm = Satomic.get epochs.pin_watermark in
  let c = ref s0 in
  for i = 0 to wm - 1 do
    let e = Hazard_eras.era inst.he i in
    if e <> 0 && e < !c then c := e
  done;
  let f = !c in
  (* flowlint: bounded a CAS miss means another scan raised pin_floor concurrently, which is progress *)
  let rec bump () =
    let cur = Satomic.get epochs.pin_floor in
    if cur < f then begin
      if not (Satomic.compare_and_set epochs.pin_floor cur f) then bump ()
    end
  in
  bump ()

let floor_period = 32

(* The prune floor of one apply pass for commit [seq], read once per pass.
   [seq - 1] is <= ro_stable by now (the committer bumped ro_stable to
   [seq - 1] before its commit CAS), so while no reader has ever
   registered in [pin_watermark] it IS a sound floor — a future reader's
   epoch is >= the ro_stable it pins — and write-only workloads prune
   without reading pin_floor or scanning a single era. *)
let apply_floor inst ~seq =
  if Satomic.get inst.epochs.pin_watermark = 0 then seq - 1
  else Satomic.get inst.epochs.pin_floor

(* Sequence-guarded DCAS of one redo-log entry (Alg. 1 lines 10-15).

   A data word is written as [Word.make_over v seq w]: the overwritten
   word [w], which covered the commit interval [w.s, seq - 1], becomes
   the new word's predecessor, so the same DCAS publishes the value and
   the version a reader pinned inside that interval still needs.  Racing
   helpers build their own candidate over the same [w]; one DCAS wins and
   the losers re-load a word with [s = seq] and stop, so the chain never
   holds a duplicate.  The winner then cuts [w]'s chain behind the node
   covering [floor]: no reader (epoch >= floor) walks past that node.

   [install] is the DCAS of [v] over an expected word [w]; [put_at] loads
   [w] first.  Metadata cells below [roots_base] carry no chain. *)
let install inst ~floor ~seq addr v (w : Word.t) =
  if addr >= inst.roots_base then begin
    let ok = Region.cas inst.region addr w (Word.make_over v seq w) in
    if ok then Word.cut (chain_find w floor);
    ok
  end
  else Region.cas inst.region addr w (Word.make v seq)

let put_at inst ~floor ~seq addr v =
  (* flowlint: bounded a CAS miss means a helper already installed this entry with sequence >= seq, so the seq guard fails on the next round *)
  let rec go () =
    let w = Region.load inst.region addr in
    if w.Word.s < seq && not (install inst ~floor ~seq addr v w) then go ()
  in
  go ()

let put_one inst ~seq addr v =
  put_at inst ~floor:(apply_floor inst ~seq) ~seq addr v

let close_request inst ~tid ~seq =
  let cell = req_cell inst tid in
  let w = Region.load inst.region cell in
  if w.Word.v = seq then
    if Region.cas1 inst.region cell w (Word.make (seq + 1) 0) then
      Telemetry.tick inst.c_recycles

(* ------------------------------------------------------------------ *)
(* Cache-line flush dedup

   The write-back loops below used to issue one pwb per modified word; k
   words in one cache line cost k flushes where real hardware needs one
   (Romulus-style flush batching, PMT §4).  A flush pass stamps each
   flushed line into a small direct-mapped per-thread seen-set keyed by
   [Region.line_of]; a second word in a seen line is skipped.  A slot
   collision merely re-flushes (correctness never depends on the dedup),
   and [last] short-circuits the common consecutive-same-line case. *)

let dedup_mask = 63 (* seen-set has 64 direct-mapped slots *)

let flush_gen inst ~me =
  if not inst.faults.stale_dedup_flush then
    inst.line_gen.(me) <- inst.line_gen.(me) + 1;
  inst.line_gen.(me)

let pwb_dedup inst ~me ~gen addr =
  let line = Region.line_of addr in
  let slot = line land dedup_mask in
  let lines = inst.seen_lines.(me) in
  let gens = inst.seen_gens.(me) in
  if not (lines.(slot) = line && gens.(slot) = gen) then begin
    lines.(slot) <- line;
    gens.(slot) <- gen;
    Region.pwb inst.region addr
  end

(* Apply our own committed write-set: one DCAS per entry, then one pwb
   per covered cache line.

   Entry [i] is installed directly over [olds.(i)], the word this
   transaction loaded from the cell, with no reload.  That word is still
   the cell's content: it passed [s <= start_seq], every commit up to
   [start_seq] was applied and closed before the attempt began, and our
   commit CAS proves nothing committed in between ([seq = start_seq + 1]).
   The only other writer is a helper installing this same entry; then the
   DCAS fails and [put_at] reloads a word with [s = seq] and stops.  A
   memo miss ([Word.nil]) also falls back to [put_at]. *)
let apply_own inst ~me ~seq (tx : tx) =
  let ws = tx.ws in
  let n = Writeset.size ws in
  let floor = apply_floor inst ~seq in
  for i = 0 to n - 1 do
    let addr = Writeset.addr_at ws i and v = Writeset.val_at ws i in
    let w = tx.olds.(i) in
    if w == Word.nil || not (install inst ~floor ~seq addr v w) then
      put_at inst ~floor ~seq addr v
  done;
  let gen = flush_gen inst ~me in
  let last = ref (-1) in
  for i = 0 to n - 1 do
    let addr = Writeset.addr_at ws i in
    let line = Region.line_of addr in
    if line <> !last then begin
      last := line;
      pwb_dedup inst ~me ~gen addr
    end
  done

(* Apply a foreign committed write-set from the snapshot arrays a helper
   copied.  Helpers re-check the owner's request cell every
   [help_check_interval] entries (paper §III-B: "helpers check that the
   transaction is still open") and stop replaying once someone — usually
   the owner — has finished the apply and closed the request; whoever
   closed it necessarily completed a full put+flush pass first, so an
   early exit never loses a put or a pwb.  Returns [true] when this
   helper ran the apply to completion (and may thus close the request). *)
let help_check_interval = 8

let apply_foreign inst ~me ~tid ~seq ~n addrs vals =
  let region = inst.region in
  let req = req_cell inst tid in
  let closed i =
    i > 0
    && i land (help_check_interval - 1) = 0
    && (Region.load region req).Word.v <> seq
  in
  let floor = apply_floor inst ~seq in
  let rec put_from i =
    if i >= n then true
    else if closed i then false
    else begin
      put_at inst ~floor ~seq addrs.(i) vals.(i);
      put_from (i + 1)
    end
  in
  put_from 0
  &&
  let gen = flush_gen inst ~me in
  let rec flush_from i last =
    if i >= n then true
    else if closed i then false
    else begin
      let addr = addrs.(i) in
      let line = Region.line_of addr in
      if line <> last then pwb_dedup inst ~me ~gen addr;
      flush_from (i + 1) line
    end
  in
  flush_from 0 (-1)

(* Help the committed-but-possibly-unapplied transaction [ct]:
   copy the owner's log, re-validate the request, apply, close. *)
let help inst ~me (ct : Word.t) =
  let region = inst.region in
  let tid = ct.Word.s and seq = ct.Word.v in
  Region.pwb region curtx_cell;
  let req = Region.load region (req_cell inst tid) in
  (if req.Word.v = seq then begin
     let n = (Region.load region (nstores_cell inst tid)).Word.v in
     if n >= 0 && n <= inst.ws_cap then begin
       let addrs = inst.scratch_addrs.(me) and vals = inst.scratch_vals.(me) in
       for i = 0 to n - 1 do
         let e = Region.load region (entry_cell inst tid i) in
         addrs.(i) <- e.Word.v;
         vals.(i) <- e.Word.s
       done;
       (* the log cannot have been recycled while the request is still open *)
       let req' = Region.load region (req_cell inst tid) in
       if req'.Word.v = seq then begin
         if tid <> me then begin
           (stats inst).Pstats.helps <- (stats inst).Pstats.helps + 1;
           Telemetry.tick inst.c_helps
         end;
         if apply_foreign inst ~me ~tid ~seq ~n addrs vals then
           close_request inst ~tid ~seq
         else begin
           (stats inst).Pstats.help_exits <- (stats inst).Pstats.help_exits + 1;
           Telemetry.tick inst.c_help_exits
         end
       end
     end
   end);
  (* every exit above means [seq] is fully applied: either this thread ran
     the apply to completion, or whoever closed the request did first *)
  stable_bump inst.epochs seq

(* Raise [ro_stable] to at least [seq] (a commit sequence that already
   won its CAS) before an update returns: a later snapshot reader must
   pin an epoch that includes it (strict serializability).  One pass
   suffices — curTx open at a later sequence proves [seq] applied (the
   commit CAS requires the predecessor closed), curTx open at [seq]
   itself is finished by helping, and a closed curTx is applied. *)
let ensure_stable inst ~me seq =
  if Satomic.get inst.epochs.ro_stable < seq then begin
    let ct = read_curtx inst in
    if is_open inst ct then begin
      if ct.Word.v <= seq then help inst ~me ct
      else stable_bump inst.epochs (ct.Word.v - 1)
    end
    else stable_bump inst.epochs ct.Word.v
  end

(* Write the redo log into this thread's persistent log area and open the
   request; one pwb per covered cache line, no fence (the commit CAS acts
   as the persistence fence, §III-D).

   The request cell is flushed BEFORE the log is overwritten: closing a
   request (close_request) is volatile, so without this pwb the durable
   request can still read "open at seq S" while we overwrite the entries
   for a later transaction — and a crash whose eviction persists some of
   the new entries but not the request cell would make null recovery
   re-apply a torn, mixed log at seq S.  Found by the Tmcheck sanitizer
   (close-before-applied fired during post-crash recovery). *)
(* flowlint: preflush the durable request cell must be written back before the log overwrite; see the comment above (PR 1 torn-log hole) *)
let publish_log inst ~me (ws : Writeset.t) ~seq =
  let region = inst.region in
  let base = req_cell inst me in
  if not inst.faults.drop_publish_pwb then Region.pwb region base;
  let n = Writeset.size ws in
  for i = 0 to n - 1 do
    Region.store region (base + 2 + i)
      (Word.make (Writeset.addr_at ws i) (Writeset.val_at ws i))
  done;
  Region.store region (base + 1) (Word.make n 0);
  Region.store region base (Word.make seq 0);
  Region.pwb_range region base (2 + n)

(* ------------------------------------------------------------------ *)
(* Allocator interposition                                              *)

(* The allocator's own free-list traffic is exempt from the sanitizer's
   heap-access rule; bracket it so only user-level accesses are checked. *)
let in_allocator tx f =
  match !(tx.txchk) with
  | None -> f ()
  | Some c ->
      Tmcheck.alloc_enter c;
      Fun.protect ~finally:(fun () -> Tmcheck.alloc_exit c) f

let alloc tx n =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  let payload = in_allocator tx (fun () -> Tm.Tm_alloc.alloc tx.txalloc tx.ops n) in
  with_chk tx.txchk (fun c ->
      Tmcheck.note_alloc c ~payload ~cells:(Tm.Tm_alloc.block_cells n - 1));
  payload

let free tx a =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  with_chk tx.txchk (fun c -> Tmcheck.note_free c ~payload:a);
  in_allocator tx (fun () -> Tm.Tm_alloc.free tx.txalloc tx.ops a)

let root inst i =
  if i < 0 || i >= inst.num_roots then invalid_arg "root";
  inst.roots_base + i

let num_roots inst = inst.num_roots
let region inst = inst.region

(* ------------------------------------------------------------------ *)
(* Wait-free snapshot reads (DESIGN.md §13)                            *)

(* Publish a read epoch for the calling thread and return it: three
   steps, no loop, no curTx access.  The era is published between the
   two ro_stable reads; see [refresh_floor] for why the returned epoch
   is always protected. *)
let snap_pin inst =
  let epochs = inst.epochs in
  (if not epochs.pinned_once.(Sched.self ()) then begin
     (* first pin by this thread slot, ever: raise the era-scan watermark
        before publishing anything (see [refresh_floor]'s ordering proof) *)
     epochs.pinned_once.(Sched.self ()) <- true;
     let wm = Sched.self () + 1 in
     (* flowlint: bounded a CAS miss means another first-time reader raised the watermark, which is progress *)
     let rec bump () =
       let cur = Satomic.get epochs.pin_watermark in
       if cur < wm then
         if not (Satomic.compare_and_set epochs.pin_watermark cur wm) then bump ()
     in
     bump ()
   end);
  if inst.faults.stale_ro_snapshot then begin
    (* planted fault: pin the raw curTx sequence, which may still be
       mid-apply — the reader then mixes pre- and post-transaction words *)
    let e = (read_curtx inst).Word.v in
    (* the mirror is written BEFORE the era is published: a fiber
       abandoned between the two leaves a mirror with no era behind it,
       which the orphan release clears harmlessly; the opposite order
       would leak an unreleasable pin *)
    epochs.pin_mine.(Sched.self ()) <- e;
    Hazard_eras.set_era inst.he e;
    Telemetry.tick inst.c_ro_pins;
    e
  end
  else begin
    let e = Satomic.get inst.epochs.ro_stable in
    epochs.pin_mine.(Sched.self ()) <- e;
    Hazard_eras.set_era inst.he e;
    let r = Satomic.get inst.epochs.ro_stable in
    Telemetry.tick inst.c_ro_pins;
    r
  end

let snap_unpin inst =
  Hazard_eras.clear inst.he;
  (* mirror cleared AFTER the era: the plain write runs in the same
     scheduling quantum as the clear, so no abandonment gap exists here *)
  inst.epochs.pin_mine.(Sched.self ()) <- 0

(* Release the era pin of a fiber that was abandoned mid-snapshot-read
   on this thread slot (the simulation's stand-in for a killed thread):
   the stale pin would hold [pin_floor] down forever.  The [pin_mine]
   mirror makes the common no-orphan case a plain read — zero steps. *)
let release_orphan_pin inst ~me =
  if inst.epochs.pin_mine.(me) <> 0 then snap_unpin inst

(* flowlint: ok unpinned-snapshot-load instance-level resolver for Tm_shard, whose cross-shard driver pins every shard before loading *)
let snap_load inst epoch addr =
  snap_resolve ~region:inst.region ~chk:inst.checker
    ~floor:inst.epochs.pin_floor epoch addr

(* The wait-free read-only fast path: pin an epoch, run the closure
   against that frozen snapshot, unpin.  Zero aborts, zero restarts,
   zero pwbs, bounded steps — write churn never touches it. *)
let snap_read_tx inst f =
  let me = Sched.self () in
  let tx = inst.txs.(me) in
  let r = snap_pin inst in
  tx.start_seq <- r;
  tx.read_only <- true;
  tx.snap_epoch <- r;
  with_chk inst.checker (fun c -> Tmcheck.tx_begin c ~read_only:true ~start_seq:r);
  match f tx with
  | exception e ->
      tx.snap_epoch <- -1;
      with_chk inst.checker Tmcheck.tx_abort;
      snap_unpin inst;
      raise e
  | v ->
      tx.snap_epoch <- -1;
      with_chk inst.checker (fun c -> Tmcheck.tx_end c ~committed:None);
      Telemetry.tick inst.c_ro_commits;
      Telemetry.observe inst.s_ro_lag (Satomic.get_relaxed inst.epochs.ro_stable - r);
      snap_unpin inst;
      v

let snapshot_ops = { Tm.Tm_intf.snap_pin; snap_load; snap_unpin }

(* ------------------------------------------------------------------ *)
(* Lock-free transactions (§III-B)                                     *)

let lf_read_tx = snap_read_tx

let lf_update_tx inst f =
  let me = Sched.self () in
  let tx = inst.txs.(me) in
  let st = stats inst in
  let t0 = Sched.now () in
  release_orphan_pin inst ~me;
  (* flowlint: bounded lock-free path: a retry happens only when another transaction committed in the meantime (curtx advanced), which is global progress *)
  let rec attempt () =
    let ct = read_curtx inst in
    if is_open inst ct then begin
      stable_bump inst.epochs (ct.Word.v - 1);
      help inst ~me ct;
      attempt ()
    end
    else begin
      stable_bump inst.epochs ct.Word.v;
      tx.start_seq <- ct.Word.v;
      tx.read_only <- false;
      (* a fiber abandoned mid-snapshot-read leaves its pin behind;
         this slot is ours now, so drop the stale epoch *)
      tx.snap_epoch <- -1;
      begin_attempt tx;
      with_chk inst.checker (fun c ->
          Tmcheck.tx_begin c ~read_only:false ~start_seq:tx.start_seq);
      match f tx with
      | exception Abort ->
          with_chk inst.checker Tmcheck.tx_abort;
          st.Pstats.aborts <- st.Pstats.aborts + 1;
          Telemetry.tick inst.c_aborts;
          attempt ()
      | result ->
          if Writeset.is_empty tx.ws then begin
            with_chk inst.checker (fun c -> Tmcheck.tx_end c ~committed:None);
            Telemetry.tick inst.c_ro_commits;
            result
          end
          else begin
            let ct =
              if inst.faults.stale_commit_snapshot then read_curtx inst else ct
            in
            let seq = ct.Word.v + 1 in
            publish_log inst ~me tx.ws ~seq;
            if Region.cas1 inst.region curtx_cell ct (Word.make seq me) then begin
              with_chk inst.checker (fun c -> Tmcheck.tx_end c ~committed:(Some seq));
              Region.pwb inst.region curtx_cell;
              apply_own inst ~me ~seq tx;
              close_request inst ~tid:me ~seq;
              stable_bump inst.epochs seq;
              if seq mod floor_period = 0 then refresh_floor inst;
              st.Pstats.commits <- st.Pstats.commits + 1;
              Telemetry.tick inst.c_commits;
              Telemetry.observe inst.s_latency (Sched.now () - t0 + 1);
              result
            end
            else begin
              with_chk inst.checker Tmcheck.tx_abort;
              st.Pstats.aborts <- st.Pstats.aborts + 1;
              Telemetry.tick inst.c_aborts;
              attempt ()
            end
          end
    end
  in
  attempt ()

(* ------------------------------------------------------------------ *)
(* Wait-free transactions (§III-E)                                     *)

(* Execute every published, not yet completed operation inside [tx],
   writing each result to its owner's result cell transactionally.

   The scan is pending-first: one read of [pending.(u)] per slot, and the
   descriptor carries everything else (opid, tag, closure).  Completion is
   the paper's sequence rule (§III-E): an op is done once its result
   cell's [s] exceeds the descriptor's [tag], so the result word is the
   only per-op write.  The result cell is read like any transactional load
   (a sequence past the snapshot aborts); with the takeover branch below
   it keeps every executor's snapshot >= [tag] >= the op's hazard-era
   birth, so hazard eras protect the closure while it runs.

   A slot-takeover op (see [publish_op]) is tagged one past the curTx
   its publisher saw, and an aggregate whose snapshot is older than that
   must not run it: its commit could land at [tag] exactly and the owner
   would miss it.  It re-stores the result cell unchanged instead, so its
   own commit still carries curTx up to the tag — without that a
   takeover publisher running alone would find nothing to commit, forever.
   An ordinary op never takes that branch: its tag is the result cell's
   sequence at publication, and a snapshot below it aborts on the load. *)
let aggregate inst tx =
  for u = 0 to inst.max_threads - 1 do
    match Satomic.get inst.pending.(u) with
    | None -> ()
    | Some d ->
        let cell = res_cell inst u in
        let w = load_word tx cell in
        if w.Word.s <= d.tag then
          if tx.start_seq < d.tag then store tx cell w.Word.v
          else begin
            (match !(inst.checker) with
            | Some c -> Tmcheck.closure_exec c ~opid:d.opid ~freed:d.freed
            | None ->
                if d.freed then
                  failwith "OneFile-WF: hazard-era violation (freed closure)");
            Telemetry.tick inst.c_wf_aggregated;
            store tx cell (d.fn tx)
          end
  done

(* Publish operation [fn] in slot [me] under a fresh opid; return its
   descriptor and its hazard-era birth.

   Ordinarily the tag is the result cell's current sequence: the slot's
   previous op is complete, so every stale copy of its descriptor already
   sees its result cell past its own tag.  [wf_busy] says otherwise when
   this slot's previous owner was killed between publishing and returning
   (a respawned process reusing the slot, as in the Fig. 12 kill test):
   its descriptor may still sit in [pending], held by aggregates that can
   yet commit it and advance the result cell.  Then the publisher first
   withdraws the old descriptor, reads curTx = c and tags its op c + 1.
   Any aggregate still holding the old descriptor read it before the
   withdrawal, so its snapshot is <= c and its commit <= c + 1: it cannot
   move the result cell past the new tag.  [wf_busy] stays set until the
   op returns, so a publisher killed inside this takeover hands it on to
   the next one.  The birth era is the curTx value the descriptor became
   reachable in. *)
let publish_op inst ~me fn =
  let region = inst.region in
  let opid = Satomic.fetch_and_add inst.next_opid 1 + 1 in
  let tag, birth =
    if inst.wf_busy.(me) then begin
      Satomic.set inst.pending.(me) None;
      let c = (read_curtx inst).Word.v in
      (c + 1, c)
    end
    else begin
      inst.wf_busy.(me) <- true;
      let rs = (Region.load region (res_cell inst me)).Word.s in
      (rs, rs)
    end
  in
  let d = { opid; tag; fn; freed = false } in
  Satomic.set inst.pending.(me) (Some d);
  (* the durable publication record whose pwb the paper's cost table
     counts; aggregates scan [pending], never this cell *)
  Region.store region (op_cell inst me) (Word.make opid tag);
  Region.pwb region (op_cell inst me);
  Telemetry.tick inst.c_wf_published;
  (d, birth)

let wf_update_tx inst f =
  let me = Sched.self () in
  let tx = inst.txs.(me) in
  let st = stats inst in
  let region_ = inst.region in
  let t0 = Sched.now () in
  release_orphan_pin inst ~me;
  let d, birth = publish_op inst ~me f in
  (* flowlint: bounded the op is published in the pending array, so every committing thread helps it; its result lands after at most two helping rounds per active thread (one more for a slot takeover) *)
  let rec loop () =
    let resw = Region.load region_ (res_cell inst me) in
    if resw.Word.s > d.tag then begin
      (* committed: reclaim the closure descriptor through hazard eras *)
      Satomic.set inst.pending.(me) None;
      inst.wf_busy.(me) <- false;
      Hazard_eras.retire_at inst.he ~birth ~del:resw.Word.s d;
      (* session order for snapshot reads: a snap_read_tx issued by this
         thread after we return must observe this operation's commit. *)
      ensure_stable inst ~me resw.Word.s;
      Telemetry.observe inst.s_latency (Sched.now () - t0 + 1);
      resw.Word.v
    end
    else begin
      let ct = read_curtx inst in
      if is_open inst ct then begin
        stable_bump inst.epochs (ct.Word.v - 1);
        help inst ~me ct;
        loop ()
      end
      else begin
        stable_bump inst.epochs ct.Word.v;
        tx.start_seq <- ct.Word.v;
        tx.read_only <- false;
        tx.snap_epoch <- -1;
        begin_attempt tx;
        with_chk inst.checker (fun c ->
            Tmcheck.tx_begin c ~read_only:false ~start_seq:tx.start_seq);
        Hazard_eras.set_era inst.he ct.Word.v;
        match aggregate inst tx with
        | exception Abort ->
            with_chk inst.checker Tmcheck.tx_abort;
            st.Pstats.aborts <- st.Pstats.aborts + 1;
            Telemetry.tick inst.c_aborts;
            loop ()
        | () ->
            if Writeset.is_empty tx.ws then begin
              with_chk inst.checker (fun c -> Tmcheck.tx_end c ~committed:None);
              loop ()
            end
            else begin
              let ct =
                if inst.faults.stale_commit_snapshot then read_curtx inst else ct
              in
              let seq = ct.Word.v + 1 in
              publish_log inst ~me tx.ws ~seq;
              if Region.cas1 region_ curtx_cell ct (Word.make seq me) then begin
                with_chk inst.checker (fun c ->
                    Tmcheck.tx_end c ~committed:(Some seq));
                Region.pwb region_ curtx_cell;
                apply_own inst ~me ~seq tx;
                close_request inst ~tid:me ~seq;
                stable_bump inst.epochs seq;
                if seq mod floor_period = 0 then refresh_floor inst;
                st.Pstats.commits <- st.Pstats.commits + 1;
                Telemetry.tick inst.c_commits
              end
              else begin
                with_chk inst.checker Tmcheck.tx_abort;
                st.Pstats.aborts <- st.Pstats.aborts + 1;
                Telemetry.tick inst.c_aborts
              end;
              loop ()
            end
      end
    end
  in
  let r = loop () in
  Hazard_eras.clear inst.he;
  r

let wf_read_tx inst f = snap_read_tx inst f

(* Debug view of the commit state: (seq, tid, request still open).  Uses
   peeks — no scheduling steps, no counters; safe from an [on_round] hook. *)
let curtx_info inst =
  let ct = Region.peek inst.region curtx_cell in
  let req = Region.peek inst.region (req_cell inst ct.Word.s) in
  (ct.Word.v, ct.Word.s, req.Word.v = ct.Word.v)

(* Allocator accounting over the quiescent volatile state (no transaction,
   no scheduling steps) — testing/diagnostics only. *)
let allocated_cells inst =
  let ops =
    {
      Tm.Tm_intf.aload = (fun a -> (Region.peek inst.region a).Word.v);
      astore = (fun _ _ -> invalid_arg "allocated_cells is read-only");
    }
  in
  Tm.Tm_alloc.allocated_cells inst.alloc ops

(* ------------------------------------------------------------------ *)
(* Null recovery (§III-D)                                              *)

let recover inst =
  Array.iter begin_attempt inst.txs;
  Array.iter (fun p -> Satomic.set p None) inst.pending;
  Array.fill inst.wf_busy 0 inst.max_threads false;
  (* closures are not executable after a restart: orphaned published
     operations will never run, but committed ones already have their
     results applied by the help below. *)
  Telemetry.tick inst.c_rec_runs;
  let ct = read_curtx inst in
  if is_open inst ct then begin
    Telemetry.tick inst.c_rec_helped;
    help inst ~me:0 ct
  end;
  (* Epoch bookkeeping is volatile: rebuild it from the durable image.
     Pre-crash readers are gone, so no era pins survive; the recovered
     state is epoch [ct.v] exactly. *)
  Hazard_eras.reset inst.he;
  Array.fill inst.epochs.pinned_once 0 (Array.length inst.epochs.pinned_once) false;
  Array.fill inst.epochs.pin_mine 0 (Array.length inst.epochs.pin_mine) 0;
  Satomic.set inst.epochs.pin_watermark 0;
  Satomic.set inst.epochs.ro_stable ct.Word.v;
  Satomic.set inst.epochs.pin_floor ct.Word.v;
  Region.pfence inst.region
