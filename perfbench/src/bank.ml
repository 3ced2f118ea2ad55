(* The bank-shard workload: 4 OneFile-LF PTM shards behind the Tm_shard
   router, built the way Workloads.Shard_bench builds it, with accounts
   dealt round-robin (root k on shard k mod 4).  Every transfer moves one
   unit, so the total is invariant; the read-only audits sum every
   balance through the router's cross-shard snapshot path and must see
   the invariant. *)

open Runtime
module Lf = Onefile.Onefile_lf

let shards = 4
let accounts = 64
let per_shard = accounts / shards
let initial = 100
let span = 1 lsl 14
let cross_pct = 25
let audit_pct = 10

(* With [~migrating], client 0 issues one split or merge every
   [migrate_every] of its own operations, walking the shard ring: split
   s -> s+1, merge it back, then s+1 -> s+2, ...  The wall phase runs
   without it: live migration under real domains loses transfer atomicity
   (see METRICS.md), a library defect the simulated phase does not hit. *)
let migrate_every = 32

module type ROUTER = sig
  include Tm.Tm_intf.S

  val make :
    ?max_pending:int ->
    ?max_cross_writes:int ->
    ?max_cross_frees:int ->
    ?max_threads:int ->
    ?batch_watermark:int ->
    ?max_ranges:int ->
    ?ro_snapshot:Lf.t Tm.Tm_intf.snapshot_ops ->
    Lf.t array ->
    t

  val split : t -> src:int -> dst:int -> [ `Ok | `Busy | `Invalid of string ]
  val merge : t -> src:int -> dst:int -> [ `Ok | `Busy | `Invalid of string ]
  val recover : shard_recover:(Lf.t -> unit) -> t -> unit
  val attach_telemetry : t -> Telemetry.t -> unit
end

module Make
    (R : ROUTER) (W : sig
      val wrap_migration : Trace.kind -> (unit -> 'a) -> 'a
      val snapshot : Lf.t Tm.Tm_intf.snapshot_ops -> Lf.t Tm.Tm_intf.snapshot_ops
    end) =
struct
  let transfer tm a b =
    ignore
      (R.update_tx tm (fun tx ->
           let ra = R.root tm a and rb = R.root tm b in
           R.store tx ra (R.load tx ra - 1);
           R.store tx rb (R.load tx rb + 1);
           0))

  let total tm =
    R.read_tx tm (fun tx ->
        let s = ref 0 in
        for i = 0 to accounts - 1 do
          s := !s + R.load tx (R.root tm i)
        done;
        !s)

  let setup ~threads ~seed ~migrating =
    let device = Pmem.Region.create ~mode:Pmem.Region.Persistent (shards * span) in
    let views = Pmem.Region.partition device (List.init shards (fun _ -> span)) in
    let mt = threads + 2 in
    let shard_tms =
      Array.of_list
        (List.map
           (fun v ->
             Lf.create ~region:v ~instance:(Pmem.Region.id v) ~max_threads:mt
               ~ws_cap:256 ~num_roots:(per_shard + 1) ())
           views)
    in
    let tm =
      R.make ~max_threads:mt ~batch_watermark:(max 7 (threads - 1))
        ~ro_snapshot:(W.snapshot Lf.snapshot_ops) shard_tms
    in
    for i = 0 to accounts - 1 do
      ignore
        (R.update_tx tm (fun tx ->
             R.store tx (R.root tm i) initial;
             0))
    done;
    let expected = accounts * initial in
    let own_ops = Array.make (threads * Phase.pad) 0 in
    let bad_audits = Atomic.make 0 in
    (* migration state, read by every client to spot ops that overlap a
       live move *)
    let live = Atomic.make false and moves = Atomic.make 0 in
    let stall_ops = Atomic.make 0 and stall_rounds = Atomic.make 0 in
    let attempts = ref 0 and refused = ref 0 in
    let cycle = ref 0 and splitting = ref true in
    let migrate () =
      let src = !cycle mod shards in
      let dst = (src + 1) mod shards in
      incr attempts;
      Atomic.set live true;
      let r =
        if !splitting then W.wrap_migration Trace.Split (fun () -> R.split tm ~src ~dst)
        else W.wrap_migration Trace.Merge (fun () -> R.merge tm ~src:dst ~dst:src)
      in
      Atomic.set live false;
      Atomic.incr moves;
      match r with
      | `Ok ->
          if not !splitting then incr cycle;
          splitting := not !splitting;
          Phase.Admin
      | `Busy | `Invalid _ ->
          incr refused;
          Phase.Failed
    in
    let data_op ~tid ~rng =
      let r = Rng.int rng 100 in
      if r < cross_pct then begin
        let s1 = Rng.int rng shards in
        let s2 = (s1 + 1 + Rng.int rng (shards - 1)) mod shards in
        transfer tm (s1 + (shards * Rng.int rng per_shard))
          (s2 + (shards * Rng.int rng per_shard))
      end
      else if r < cross_pct + audit_pct then begin
        if total tm <> expected then Atomic.incr bad_audits
      end
      else begin
        let h = tid mod shards in
        let j1 = Rng.int rng per_shard in
        let j2 = (j1 + 1 + Rng.int rng (per_shard - 1)) mod per_shard in
        transfer tm (h + (shards * j1)) (h + (shards * j2))
      end
    in
    let op ~tid ~rng =
      let i = tid * Phase.pad in
      own_ops.(i) <- own_ops.(i) + 1;
      match
        if migrating && tid = 0 && own_ops.(i) mod migrate_every = 0 then
          migrate ()
        else begin
          let live0 = Atomic.get live and moves0 = Atomic.get moves in
          let t0 = Sched.now () in
          data_op ~tid ~rng;
          if live0 || Atomic.get live || Atomic.get moves <> moves0 then begin
            Atomic.incr stall_ops;
            ignore (Atomic.fetch_and_add stall_rounds (Sched.now () - t0 + 1))
          end;
          Phase.Done
        end
      with
      | o -> o
      | exception _ -> Phase.Failed
    in
    let check ~stage errs =
      let t = total tm in
      if t <> expected then
        errs :=
          Printf.sprintf "%s: account total %d, expected %d" stage t expected
          :: !errs
    in
    let verify ~crash =
      let errs = ref [] in
      if Atomic.get bad_audits > 0 then
        errs :=
          Printf.sprintf "%d audits saw a total other than %d"
            (Atomic.get bad_audits) expected
          :: !errs;
      (try
         if crash then begin
           Pmem.Region.crash device ~evict_fraction:0.5
             ~rng:(Rng.create (seed + 2)) ();
           R.recover ~shard_recover:Lf.recover tm
         end;
         check ~stage:(if crash then "after crash+recover" else "final") errs
       with e -> errs := ("raised " ^ Printexc.to_string e) :: !errs);
      List.rev !errs
    in
    let attach reg =
      Array.iter (fun s -> Lf.attach_telemetry s reg) shard_tms;
      R.attach_telemetry tm reg
    in
    let extra () =
      [
        ( "tm_shard.migration_stall_rounds",
          Stats.ratio (Atomic.get stall_rounds) (Atomic.get stall_ops) );
        ("tm_shard.migrate_refused_share", Stats.ratio !refused !attempts);
      ]
    in
    { Phase.op; device; attach; verify; extra }
end

module Shard_router = Tm.Tm_shard.Make (Lf)

module Plain =
  Make
    (Shard_router)
    (struct
      let wrap_migration _ f = f ()
      let snapshot s = s
    end)

module Traced_router = struct
  module Sh = Tm.Tm_shard.Make
      (Traced.Make
         (struct
           let level = Trace.tm_level
         end)
         (Lf))

  include
    Traced.Make
      (struct
        let level = Trace.router_level
      end)
      (Sh)

  let make = Sh.make
  let split = Sh.split
  let merge = Sh.merge
  let recover = Sh.recover
  let attach_telemetry = Sh.attach_telemetry
end

module Spanned =
  Make
    (Traced_router)
    (struct
      let wrap_migration = Trace.span
      let snapshot = Traced.snapshot_ops
    end)

let setup ~threads ~seed ~traced ~wall =
  let migrating = not wall in
  if traced then Spanned.setup ~threads ~seed ~migrating
  else Plain.setup ~threads ~seed ~migrating
