(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§V) under the deterministic simulator.

     dune exec bench/main.exe -- --figure fig5 --full
     dune exec bench/main.exe -- --figure all
     dune exec bench/main.exe -- --figure fig5 --json          # BENCH_fig5.json
     dune exec bench/main.exe -- --figure fig5 --baseline BENCH_fig5.json

   Throughput unit: committed operations per 1000 simulated rounds
   ("ops/kround").  The simulated machine has [cores] CPUs; thread counts
   beyond that are over-subscription, as in the paper.  Latency unit:
   simulated rounds.  See EXPERIMENTS.md for the paper-vs-measured record
   and the workload-scaling notes.

   With [--json], every figure run is also serialized (config, seed,
   series tables, telemetry snapshot) through {!Workloads.Bench_json};
   [--baseline FILE] diffs the fresh run against a previously saved file
   and exits nonzero when a series regressed beyond [--tolerance]. *)

open Workloads
module Region = Pmem.Region
module Rng = Runtime.Rng
module Sched = Runtime.Sched
module Telemetry = Runtime.Telemetry
module J = Bench_json
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf

let cores = 8

type mode = { threads : int list; rounds : int; list_keys : int; tree_keys : int }

let quick =
  { threads = [ 1; 2; 4; 8; 16 ]; rounds = 20_000; list_keys = 128; tree_keys = 2048 }

let full =
  {
    threads = [ 1; 2; 4; 8; 16; 32; 64 ];
    rounds = 60_000;
    list_keys = 512;
    tree_keys = 8192;
  }

(* Base seed (--seed) mixed into every workload seed; 0 keeps the historic
   seeds so default output is unchanged. *)
let base_seed = ref 0
let mix seed = seed + (1_000_003 * !base_seed)

let spec mode ~threads ~seed =
  {
    Bench_runner.threads;
    cores;
    rounds = mode.rounds;
    seed = mix seed;
    policy = Sched.Round_robin;
  }

let pr fmt = Format.printf fmt

(* Telemetry registry for the figure currently running; every OneFile
   instance built through the TM_FRESH wrappers below reports into it. *)
let tele = ref (Telemetry.create ())

(* Every series a figure prints is also recorded here as a Bench_json
   table, so --json / --baseline see exactly what the text output shows. *)
let tables : J.table list ref = ref []

let record ~title ~columns ~better rows =
  tables :=
    {
      J.title;
      columns;
      better;
      rows = List.map (fun (label, values) -> { J.label; values }) rows;
    }
    :: !tables

let emit ?(label_col = "threads") ~title ~columns ~better rows =
  record ~title ~columns ~better rows;
  pr "@.# %s@." title;
  pr "%s" label_col;
  List.iter (fun c -> pr ", %s" c) columns;
  pr "@.";
  List.iter
    (fun (label, values) ->
      pr "%s" label;
      List.iter (fun v -> pr ", %.1f" v) values;
      pr "@.")
    rows

(* ------------------------------------------------------------------ *)
(* Series definitions *)

module type TM_FRESH = sig
  include Tm.Tm_intf.S

  val fresh : unit -> t
end

let vol_size = 1 lsl 18

module Of_lf_v = struct
  include Lf

  let fresh () =
    let t = create ~mode:Region.Volatile ~size:vol_size ~ws_cap:2048 () in
    attach_telemetry t !tele;
    t
end

module Of_wf_v = struct
  include Wf

  let fresh () =
    let t = create ~mode:Region.Volatile ~size:vol_size ~ws_cap:2048 () in
    attach_telemetry t !tele;
    t
end

module Tiny_v = struct
  include Baselines.Tinystm

  let fresh () = create ~size:vol_size ()
end

module Estm_v = struct
  include Baselines.Estm

  let fresh () = create ~size:vol_size ()
end

module Estm_elastic_v = struct
  include Baselines.Estm

  let fresh () = create ~size:vol_size ~elastic:true ()
end

module Of_lf_p = struct
  include Lf

  let fresh () =
    let t = create ~mode:Region.Persistent ~size:vol_size ~ws_cap:2048 () in
    attach_telemetry t !tele;
    t
end

module Of_wf_p = struct
  include Wf

  let fresh () =
    let t = create ~mode:Region.Persistent ~size:vol_size ~ws_cap:2048 () in
    attach_telemetry t !tele;
    t
end

module Pmdk_p = struct
  include Baselines.Pmdk

  let fresh () = create ~size:vol_size ()
end

module Romlog_p = struct
  include Baselines.Romulus_log

  let fresh () = create ~half:(1 lsl 17) ()
end

module Romlr_p = struct
  include Baselines.Romulus_lr

  let fresh () = create ~half:(1 lsl 17) ()
end

(* The same workload behind a 4-shard volatile router: read-only
   transactions that stay on one shard take that shard's wait-free
   snapshot path, traversals that cross take the epoch-vector cut. *)
module Shr_lf = Tm.Tm_shard.Make (Lf)

module Of_sh_lf_v = struct
  include Shr_lf

  let n_shards = 4

  let fresh () =
    let span = 1 lsl 16 in
    let device = Region.create ~mode:Region.Volatile (n_shards * span) in
    let views = Region.partition device (List.init n_shards (fun _ -> span)) in
    let insts =
      Array.of_list
        (List.map
           (fun v ->
             let sh =
               Lf.create ~region:v ~instance:(Region.id v) ~max_threads:24
                 ~ws_cap:256 ~num_roots:16 ()
             in
             Lf.attach_telemetry sh !tele;
             sh)
           views)
    in
    let t = make ~max_threads:24 ~ro_snapshot:Lf.snapshot_ops insts in
    attach_telemetry t !tele;
    t
end

(* ------------------------------------------------------------------ *)
(* SPS (Figs. 2, 3, 8) *)

module SpsBench (T : TM_FRESH) = struct
  module S = Structures.Sps.Make (T)

  let point ~n ~swaps ~alloc sp =
    let t = T.fresh () in
    let s = if alloc then S.create_alloc t ~root:0 ~n else S.create t ~root:0 ~n in
    Bench_runner.throughput sp (fun ~tid:_ ~rng ->
        if alloc then S.swaps_alloc_tx s rng swaps else S.swaps_tx s rng swaps)
end

module Sps_of_lf = SpsBench (Of_lf_v)
module Sps_of_wf = SpsBench (Of_wf_v)
module Sps_tiny = SpsBench (Tiny_v)
module Sps_estm = SpsBench (Estm_v)
module Sps_of_lf_p = SpsBench (Of_lf_p)
module Sps_of_wf_p = SpsBench (Of_wf_p)
module Sps_pmdk = SpsBench (Pmdk_p)
module Sps_romlog = SpsBench (Romlog_p)
module Sps_romlr = SpsBench (Romlr_p)

let fig_sps mode ~alloc ~persistent =
  let n = if persistent then 4096 else 1000 in
  let swaps_list = if alloc then [ 1; 4; 16 ] else [ 1; 4; 16; 64 ] in
  let series =
    if persistent then
      [
        ("OF-LF", Sps_of_lf_p.point);
        ("OF-WF", Sps_of_wf_p.point);
        ("PMDK", Sps_pmdk.point);
        ("RomLog", Sps_romlog.point);
        ("RomLR", Sps_romlr.point);
      ]
    else
      [
        ("OF-LF", Sps_of_lf.point);
        ("OF-WF", Sps_of_wf.point);
        ("TinySTM", Sps_tiny.point);
        ("ESTM", Sps_estm.point);
      ]
  in
  List.iter
    (fun swaps ->
      let title =
        Printf.sprintf "SPS%s%s: %d-word array, %d swaps/tx (swaps per kround)"
          (if alloc then "+alloc" else "")
          (if persistent then " persistent" else "")
          n swaps
      in
      let rows =
        List.map
          (fun threads ->
            let sp = spec mode ~threads ~seed:(threads + (swaps * 131)) in
            ( string_of_int threads,
              List.map
                (fun (_, point) -> point ~n ~swaps ~alloc sp *. float_of_int swaps)
                series ))
          mode.threads
      in
      emit ~title ~columns:(List.map fst series) ~better:J.Higher_better rows)
    swaps_list

(* ------------------------------------------------------------------ *)
(* Sets (Figs. 5, 6, 9, 10, 11) *)

module LlBench (T : TM_FRESH) = struct
  module S = Structures.Ll_set.Make (T)

  let point ~keys ~update_pct sp =
    let t = T.fresh () in
    let s = S.create t ~root:0 in
    for i = 0 to keys - 1 do
      ignore (S.add s (2 * i))
    done;
    Bench_runner.throughput sp (fun ~tid:_ ~rng ->
        let k = 2 * Rng.int rng keys in
        if Rng.int rng 1000 < update_pct then begin
          ignore (S.remove s k);
          ignore (S.add s k)
        end
        else begin
          ignore (S.contains s k);
          ignore (S.contains s (2 * Rng.int rng keys))
        end)
end

module TreeBench (T : TM_FRESH) = struct
  module S = Structures.Tree_set.Make (T)

  let point ~keys ~update_pct sp =
    let t = T.fresh () in
    let s = S.create t ~root:0 in
    for i = 0 to keys - 1 do
      ignore (S.add s (2 * i))
    done;
    Bench_runner.throughput sp (fun ~tid:_ ~rng ->
        let k = 2 * Rng.int rng keys in
        if Rng.int rng 1000 < update_pct then begin
          ignore (S.remove s k);
          ignore (S.add s k)
        end
        else begin
          ignore (S.contains s k);
          ignore (S.contains s (2 * Rng.int rng keys))
        end)
end

module HashBench (T : TM_FRESH) = struct
  module S = Structures.Hash_set.Make (T)

  let point ~keys ~update_pct sp =
    let t = T.fresh () in
    let s = S.create ~initial_buckets:(2 * keys) t ~root:0 in
    for i = 0 to keys - 1 do
      ignore (S.add s (2 * i))
    done;
    Bench_runner.throughput sp (fun ~tid:_ ~rng ->
        let k = 2 * Rng.int rng keys in
        if Rng.int rng 1000 < update_pct then begin
          ignore (S.remove s k);
          ignore (S.add s k)
        end
        else begin
          ignore (S.contains s k);
          ignore (S.contains s (2 * Rng.int rng keys))
        end)
end

let efrb_point ~keys ~update_pct sp =
  let s = Baselines.Efrb_tree.create ~max_threads:80 () in
  for i = 0 to keys - 1 do
    ignore (Baselines.Efrb_tree.add s (2 * i))
  done;
  Bench_runner.throughput sp (fun ~tid:_ ~rng ->
      let k = 2 * Rng.int rng keys in
      if Rng.int rng 1000 < update_pct then begin
        ignore (Baselines.Efrb_tree.remove s k);
        ignore (Baselines.Efrb_tree.add s k)
      end
      else begin
        ignore (Baselines.Efrb_tree.contains s k);
        ignore (Baselines.Efrb_tree.contains s (2 * Rng.int rng keys))
      end)

let harris_point ~keys ~update_pct sp =
  let s = Baselines.Harris_list.create ~max_threads:80 () in
  for i = 0 to keys - 1 do
    ignore (Baselines.Harris_list.add s (2 * i))
  done;
  Bench_runner.throughput sp (fun ~tid:_ ~rng ->
      let k = 2 * Rng.int rng keys in
      if Rng.int rng 1000 < update_pct then begin
        ignore (Baselines.Harris_list.remove s k);
        ignore (Baselines.Harris_list.add s k)
      end
      else begin
        ignore (Baselines.Harris_list.contains s k);
        ignore (Baselines.Harris_list.contains s (2 * Rng.int rng keys))
      end)

module Ll_of_lf = LlBench (Of_lf_v)
module Ll_sh_lf = LlBench (Of_sh_lf_v)
module Ll_of_wf = LlBench (Of_wf_v)
module Ll_tiny = LlBench (Tiny_v)
module Ll_estm = LlBench (Estm_elastic_v)
module Ll_of_lf_p = LlBench (Of_lf_p)
module Ll_of_wf_p = LlBench (Of_wf_p)
module Ll_pmdk = LlBench (Pmdk_p)
module Ll_romlog = LlBench (Romlog_p)
module Ll_romlr = LlBench (Romlr_p)
module Tree_of_lf = TreeBench (Of_lf_v)
module Tree_of_wf = TreeBench (Of_wf_v)
module Tree_tiny = TreeBench (Tiny_v)
module Tree_estm = TreeBench (Estm_v)
module Tree_of_lf_p = TreeBench (Of_lf_p)
module Tree_of_wf_p = TreeBench (Of_wf_p)
module Tree_pmdk = TreeBench (Pmdk_p)
module Tree_romlog = TreeBench (Romlog_p)
module Tree_romlr = TreeBench (Romlr_p)
module Hash_of_lf_p = HashBench (Of_lf_p)
module Hash_of_wf_p = HashBench (Of_wf_p)
module Hash_pmdk = HashBench (Pmdk_p)
module Hash_romlog = HashBench (Romlog_p)
module Hash_romlr = HashBench (Romlr_p)

let update_ratios_permille = [ 1000; 100; 10; 0 ]

let fig_sets mode ~name ~keys ~series =
  List.iter
    (fun upd ->
      let title =
        Printf.sprintf "%s, %d keys, update ratio %.1f%% (ops per kround)" name
          keys
          (float_of_int upd /. 10.0)
      in
      let rows =
        List.map
          (fun threads ->
            let sp = spec mode ~threads ~seed:(threads + (upd * 7)) in
            ( string_of_int threads,
              List.map (fun (_, point) -> point ~keys ~update_pct:upd sp) series ))
          mode.threads
      in
      emit ~title ~columns:(List.map fst series) ~better:J.Higher_better rows)
    update_ratios_permille

(* ------------------------------------------------------------------ *)
(* Queues (Figs. 4 and 12-left) *)

module QBench (T : TM_FRESH) = struct
  module Q = Structures.Tm_queue.Make (T)

  let point sp =
    let t = T.fresh () in
    let q = Q.create t ~root:0 in
    for i = 1 to 16 do
      Q.enqueue q i
    done;
    Bench_runner.throughput sp (fun ~tid ~rng:_ ->
        Q.enqueue q (tid + 1);
        ignore (Q.dequeue q))
end

module Q_of_lf = QBench (Of_lf_v)
module Q_of_wf = QBench (Of_wf_v)
module Q_tiny = QBench (Tiny_v)
module Q_estm = QBench (Estm_v)
module Q_of_lf_p = QBench (Of_lf_p)
module Q_of_wf_p = QBench (Of_wf_p)
module Q_pmdk = QBench (Pmdk_p)
module Q_romlog = QBench (Romlog_p)
module Q_romlr = QBench (Romlr_p)

let msq_point sp =
  let q = Baselines.Msqueue.create ~max_threads:80 () in
  for i = 1 to 16 do
    Baselines.Msqueue.enqueue q i
  done;
  Bench_runner.throughput sp (fun ~tid ~rng:_ ->
      Baselines.Msqueue.enqueue q (tid + 1);
      ignore (Baselines.Msqueue.dequeue q))

let simq_point sp =
  let q = Baselines.Ucqueue.create ~max_threads:80 () in
  for i = 1 to 16 do
    Baselines.Ucqueue.enqueue q i
  done;
  Bench_runner.throughput sp (fun ~tid ~rng:_ ->
      Baselines.Ucqueue.enqueue q (tid + 1);
      ignore (Baselines.Ucqueue.dequeue q))

let faaq_point sp =
  let q = Baselines.Faaq.create ~max_threads:80 () in
  for i = 1 to 16 do
    Baselines.Faaq.enqueue q i
  done;
  Bench_runner.throughput sp (fun ~tid ~rng:_ ->
      Baselines.Faaq.enqueue q (tid + 1);
      ignore (Baselines.Faaq.dequeue q))

let lcrq_point sp =
  let q = Baselines.Lcrq.create ~ring_size:64 ~max_threads:80 () in
  for i = 1 to 16 do
    Baselines.Lcrq.enqueue q i
  done;
  Bench_runner.throughput sp (fun ~tid ~rng:_ ->
      Baselines.Lcrq.enqueue q (tid + 1);
      ignore (Baselines.Lcrq.dequeue q))

let fhmp_point sp =
  let q = Baselines.Fhmp_queue.create ~size:(1 lsl 21) () in
  for i = 1 to 16 do
    Baselines.Fhmp_queue.enqueue q i
  done;
  Bench_runner.throughput sp (fun ~tid ~rng:_ ->
      Baselines.Fhmp_queue.enqueue q (tid + 1);
      ignore (Baselines.Fhmp_queue.dequeue q))

let fig_queues mode =
  let linked =
    [
      ("OF-LF", Q_of_lf.point);
      ("OF-WF", Q_of_wf.point);
      ("TinySTM", Q_tiny.point);
      ("ESTM", Q_estm.point);
      ("MSQueue", msq_point);
      ("SimQueue*", simq_point);
    ]
  in
  let arrayq = [ ("LCRQ", lcrq_point); ("FAAQueue", faaq_point) ] in
  let sweep series =
    List.map
      (fun threads ->
        let sp = spec mode ~threads ~seed:threads in
        (string_of_int threads, List.map (fun (_, p) -> p sp) series))
      mode.threads
  in
  emit ~title:"Queues, linked-list based (enq+deq pairs per kround)"
    ~columns:(List.map fst linked) ~better:J.Higher_better (sweep linked);
  emit ~title:"Queues, array based (enq+deq pairs per kround)"
    ~columns:(List.map fst arrayq) ~better:J.Higher_better (sweep arrayq)

let fig_pqueues mode =
  let series =
    [
      ("OF-LF", Q_of_lf_p.point);
      ("OF-WF", Q_of_wf_p.point);
      ("PMDK", Q_pmdk.point);
      ("RomLog", Q_romlog.point);
      ("RomLR", Q_romlr.point);
      ("FHMP", fhmp_point);
    ]
  in
  let rows =
    List.map
      (fun threads ->
        let sp = spec mode ~threads ~seed:threads in
        (string_of_int threads, List.map (fun (_, p) -> p sp) series))
      mode.threads
  in
  emit ~title:"Persistent queues (enq+deq pairs per kround)"
    ~columns:(List.map fst series) ~better:J.Higher_better rows

(* ------------------------------------------------------------------ *)
(* Latency percentiles (Fig. 7) *)

module CntBench (T : TM_FRESH) = struct
  module C = Structures.Counters.Make (T)

  let histogram ~threads ~rounds ~seed =
    let t = T.fresh () in
    let c = C.create t ~root:0 ~n:64 in
    (* random scheduling on half the cores: latency tails come from unlucky
       schedules, which a fair lockstep never produces *)
    let sp =
      {
        Bench_runner.threads;
        cores = cores / 2;
        rounds;
        seed;
        policy = Sched.Random_order;
      }
    in
    let flip = Array.make threads true in
    Bench_runner.latency sp (fun ~tid ~rng:_ ->
        C.increment_all c ~left_to_right:flip.(tid);
        flip.(tid) <- not flip.(tid))
end

module Cnt_of_lf = CntBench (Of_lf_v)
module Cnt_of_wf = CntBench (Of_wf_v)
module Cnt_tiny = CntBench (Tiny_v)
module Cnt_estm = CntBench (Estm_v)

let fig_latency mode =
  let percentiles = [ 50.0; 90.0; 99.0; 99.9; 99.99 ] in
  let series =
    [
      ("OF-WF", Cnt_of_wf.histogram);
      ("OF-LF", Cnt_of_lf.histogram);
      ("TinySTM", Cnt_tiny.histogram);
      ("ESTM", Cnt_estm.histogram);
    ]
  in
  List.iter
    (fun threads ->
      let rows =
        List.map
          (fun (name, mk) ->
            let h = mk ~threads ~rounds:mode.rounds ~seed:(mix threads) in
            ( name,
              List.map
                (fun p -> float_of_int (Runtime.Histogram.percentile h p))
                percentiles
              @ [ float_of_int (Runtime.Histogram.max_value h) ] ))
          series
      in
      emit ~label_col:"series"
        ~title:
          (Printf.sprintf
             "Latency percentiles (rounds/tx), 64 alternating counters, %d threads"
             threads)
        ~columns:[ "p50"; "p90"; "p99"; "p99.9"; "p99.99"; "max" ]
        ~better:J.Lower_better rows)
    (List.filter (fun t -> t >= 2 && t <= 16) mode.threads)

(* ------------------------------------------------------------------ *)
(* Fig. 12-right: kill test, and the crash campaign *)

let fig_kill mode =
  pr "@.# Kill test: N processes transfer items between two persistent queues;@.";
  pr "# one process killed and respawned every 500 rounds@.";
  let procs_list = List.filter (fun t -> t >= 2 && t <= 32) mode.threads in
  let results =
    List.map
      (fun procs ->
        let rounds = mode.rounds in
        let run ~wf ~kill =
          Kill_test.run ~wf ~processes:procs ~rounds
            ~kill_every:(if kill then Some 500 else None)
            ~items:16 ~seed:(mix procs) ()
        in
        (procs, run ~wf:false ~kill:false, run ~wf:false ~kill:true,
         run ~wf:true ~kill:false, run ~wf:true ~kill:true))
      procs_list
  in
  let per_kround transfers =
    1000.0 *. float_of_int transfers /. float_of_int mode.rounds
  in
  let bad (r : Kill_test.result) =
    (if r.final_total_ok then 0 else 1) + r.torn_observations
  in
  emit ~label_col:"procs" ~title:"Kill test: transfers per kround"
    ~columns:[ "OF-LF no-kill"; "OF-LF kill"; "OF-WF no-kill"; "OF-WF kill" ]
    ~better:J.Higher_better
    (List.map
       (fun (procs, lf_nk, lf_k, wf_nk, wf_k) ->
         ( string_of_int procs,
           [
             per_kround lf_nk.Kill_test.transfers;
             per_kround lf_k.Kill_test.transfers;
             per_kround wf_nk.Kill_test.transfers;
             per_kround wf_k.Kill_test.transfers;
           ] ))
       results);
  emit ~label_col:"procs" ~title:"Kill test: kills injected"
    ~columns:[ "OF-LF"; "OF-WF" ] ~better:J.Info
    (List.map
       (fun (procs, _, lf_k, _, wf_k) ->
         ( string_of_int procs,
           [ float_of_int lf_k.Kill_test.kills; float_of_int wf_k.Kill_test.kills ]
         ))
       results);
  emit ~label_col:"procs" ~title:"Kill test: integrity violations"
    ~columns:[ "torn+mismatch"; "leaked cells" ] ~better:J.Lower_better
    (List.map
       (fun (procs, lf_nk, lf_k, wf_nk, wf_k) ->
         ( string_of_int procs,
           [
             float_of_int (bad lf_k + bad wf_k + bad lf_nk + bad wf_nk);
             float_of_int
               (lf_k.Kill_test.leaked_cells + wf_k.Kill_test.leaked_cells);
           ] ))
       results)

let fig_crashes () =
  let campaigns =
    [
      ("OF-LF SPS", fun () -> Crash_campaign.onefile_sps ~wf:false ~trials:30 ());
      ("OF-WF SPS", fun () -> Crash_campaign.onefile_sps ~wf:true ~trials:30 ());
      ( "OF-LF queues",
        fun () -> Crash_campaign.onefile_queues ~wf:false ~trials:30 () );
      ( "OF-WF queues",
        fun () -> Crash_campaign.onefile_queues ~wf:true ~trials:30 () );
      ( "OF-LF SPS evict",
        fun () -> Crash_campaign.onefile_sps ~wf:false ~trials:30 ~evict:0.5 () );
      ("RomLog pair", fun () -> Crash_campaign.romulus_sps ~lr:false ~trials:30 ());
      ("RomLR pair", fun () -> Crash_campaign.romulus_sps ~lr:true ~trials:30 ());
      ("PMDK pair", fun () -> Crash_campaign.pmdk_sps ~trials:30 ());
    ]
  in
  let rows =
    List.map
      (fun (label, run) ->
        let r = run () in
        ( label,
          [
            float_of_int r.Crash_campaign.trials;
            float_of_int r.torn;
            float_of_int r.regressed;
            float_of_int r.leaked;
          ] ))
      campaigns
  in
  emit ~label_col:"campaign"
    ~title:"Crash-recovery campaign (whole-system crash at swept points)"
    ~columns:[ "trials"; "torn"; "regressed"; "leaked" ]
    ~better:J.Lower_better rows

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out *)

let fig_ablation mode =
  (* 1. Over-subscription: fixed 32 threads, shrinking machine *)
  emit ~label_col:"cores"
    ~title:"Ablation: over-subscription (SPS 16 swaps/tx, 32 threads)"
    ~columns:[ "OF-LF"; "OF-WF"; "TinySTM" ] ~better:J.Higher_better
    (List.map
       (fun c ->
         let point pnt =
           pnt ~n:1000 ~swaps:16 ~alloc:false
             { Bench_runner.threads = 32; cores = c; rounds = mode.rounds;
               seed = mix c; policy = Sched.Round_robin }
         in
         ( string_of_int c,
           [ point Sps_of_lf.point; point Sps_of_wf.point; point Sps_tiny.point ]
         ))
       [ 2; 4; 8; 16; 32 ]);
  (* 2. Write-set lookup threshold (the paper's 40): real wall-clock of
     populating + probing a large redo log — informational, not gated *)
  emit ~label_col:"threshold"
    ~title:"Ablation: write-set linear/hash threshold (wall-clock, 512-store tx)"
    ~columns:[ "ns/op" ] ~better:J.Info
    (List.map
       (fun (thr, label) ->
         let ws = Onefile.Writeset.create ~linear_threshold:thr 1024 in
         let t0 = Unix.gettimeofday () in
         let iters = 300 in
         for _ = 1 to iters do
           Onefile.Writeset.clear ws;
           for i = 1 to 512 do
             Onefile.Writeset.put ws (i * 8) i;
             ignore (Onefile.Writeset.find ws ((i * 4) + 1))
           done
         done;
         let dt = Unix.gettimeofday () -. t0 in
         (label, [ dt /. float_of_int (iters * 1024) *. 1e9 ]))
       [ (0, "0"); (40, "40"); (max_int, "inf") ]);
  (* 3. Persistence cost model: how the fig8 ranking depends on the fence
     price (1 = the paper's DRAM-emulated NVM, higher = real NVM) *)
  let saved = !Region.pfence_cost in
  emit ~label_col:"pfence_cost"
    ~title:"Ablation: pfence price vs persistent-SPS ranking (8 threads, 1 swap/tx)"
    ~columns:[ "OF-LF"; "PMDK"; "RomLog" ] ~better:J.Higher_better
    (List.map
       (fun c ->
         Region.pfence_cost := c;
         let sp =
           { Bench_runner.threads = 8; cores = 8; rounds = mode.rounds;
             seed = mix c; policy = Sched.Round_robin }
         in
         let point pnt = pnt ~n:1024 ~swaps:1 ~alloc:false sp in
         ( string_of_int c,
           [ point Sps_of_lf_p.point; point Sps_pmdk.point;
             point Sps_romlog.point ] ))
       [ 1; 4; 16 ]);
  Region.pfence_cost := saved

(* ------------------------------------------------------------------ *)
(* Cost table (§V-B) *)

let fig_table1 () =
  let measure title ~nw =
    let rows = Table_costs.measure_all ~nw in
    pr "@.# %s@." title;
    Table_costs.print Format.std_formatter rows;
    record ~title
      ~columns:[ "pwb"; "pfence"; "cas+dcas" ]
      ~better:J.Lower_better
      (List.map
         (fun (r : Table_costs.row) -> (r.label, [ r.pwb; r.pfence; r.cas_dcas ]))
         rows)
  in
  measure "Persistence-cost table (per update transaction, Nw = 8 modified words)"
    ~nw:8;
  measure "Persistence-cost table (per update transaction, Nw = 4 modified words)"
    ~nw:4

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let micro () =
  let open Bechamel in
  let lf = Lf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~ws_cap:64 () in
  let wf = Wf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~ws_cap:64 () in
  let lfp = Lf.create ~mode:Region.Persistent ~size:(1 lsl 14) ~ws_cap:64 () in
  let r0 = Lf.root lf 0 in
  let tests =
    Test.make_grouped ~name:"onefile"
      [
        Test.make ~name:"lf-update-1w"
          (Staged.stage (fun () ->
               ignore (Lf.update_tx lf (fun tx -> Lf.store tx r0 1; 0))));
        Test.make ~name:"wf-update-1w"
          (Staged.stage (fun () ->
               ignore (Wf.update_tx wf (fun tx -> Wf.store tx (Wf.root wf 0) 1; 0))));
        Test.make ~name:"lf-read-1w"
          (Staged.stage (fun () -> ignore (Lf.read_tx lf (fun tx -> Lf.load tx r0))));
        Test.make ~name:"ptm-update-1w"
          (Staged.stage (fun () ->
               ignore (Lf.update_tx lfp (fun tx -> Lf.store tx (Lf.root lfp 0) 1; 0))));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  pr "@.# Primitive costs (real wall-clock, single thread, no simulator)@.";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> pr "%-32s %10.0f ns/op@." name est
      | _ -> pr "%-32s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)
(* Hot-path cost trajectory (extension).

   Simulator-native, wall-clock-free metrics that gate the hot-path
   overhaul: minor-heap words per TM operation, pwb/pfence per committed
   update transaction at 1-, 2- and 4-line write-set footprints, helper
   work under contention, and ops/kround throughput for the same shapes.
   The gated tables carry a "pre-overhaul" row of constants measured at
   this PR's base commit with the same harness, so BENCH_hotpath.json
   records the before/after trajectory in one file and bench_diff guards
   the after against future regression.  Everything here is exact and
   reproducible: allocation counts come from the compiled code, pwb
   counts from Pstats, scheduling from the seeded simulator. *)

(* Per-op minor-heap words, free of measurement-loop bias: run [op] n and
   then 2n times and take (d2 - d1) / n, cancelling the loop's own
   allocations (boxed floats from Gc.minor_words, closure setup). *)
let words_per op n =
  let d1 =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      op ()
    done;
    Gc.minor_words () -. before
  in
  let d2 =
    let before = Gc.minor_words () in
    for _ = 1 to 2 * n do
      op ()
    done;
    Gc.minor_words () -. before
  in
  (d2 -. d1) /. float_of_int n

(* Router steps per single-shard transaction: the scheduler steps a
   Shard-LF update of 8 words on one shard pays on top of the same update
   run directly on that shard, solo.  The router takes its route once per
   transaction — one map-image load (with the migration descriptor) in
   the classify pre-pass and one in the single-shard call, the descriptor
   once per attempt — so the count does not grow with the write set.
   The pre-route-once row is the same harness at the router that paid a
   map load per access in both the pre-pass and the transaction. *)
let router_steps_per_tx () =
  let t = Of_sh_lf_v.fresh () in
  let sh = (Shr_lf.shards t).(0) in
  let via_router () =
    ignore
      (Shr_lf.update_tx t (fun tx ->
           for j = 0 to 7 do
             (* root 4j lives on shard 0 of the 4 *)
             Shr_lf.store tx (Shr_lf.root t (4 * j)) j
           done;
           0))
  in
  let direct () =
    ignore
      (Lf.update_tx sh (fun tx ->
           for j = 0 to 7 do
             Lf.store tx (Lf.root sh j) j
           done;
           0))
  in
  via_router ();
  direct ();
  let steps f = Sched.total_steps (Sched.run [| f |]) in
  let net f = steps f - steps ignore in
  float_of_int (net via_router - net direct)

let fig_hotpath mode =
  let module Pstats = Pmem.Pstats in
  (* 1. Minor-heap words per op on the three hot shapes.  Pre-overhaul,
     each load boxed an option (and every access went through a fresh
     interposition closure); all three must now be exactly 0. *)
  let alloc_row (module T : TM_FRESH) =
    let t = T.fresh () in
    let r0 = T.root t 0 in
    ignore (T.update_tx t (fun tx -> T.store tx r0 7; 0));
    let ro = ref 0.0 and wl = ref 0.0 and ws = ref 0.0 in
    ignore
      (T.read_tx t (fun tx ->
           ignore (T.load tx r0);
           ro := words_per (fun () -> ignore (T.load tx r0)) 10_000;
           0));
    ignore
      (T.update_tx t (fun tx ->
           T.store tx r0 1;
           wl := words_per (fun () -> ignore (T.load tx r0)) 10_000;
           ws := words_per (fun () -> T.store tx r0 2) 10_000;
           0));
    [ !ro; !wl; !ws ]
  in
  emit ~label_col:"series" ~title:"Hotpath: minor-heap words per op"
    ~columns:[ "ro-load"; "ws-hit load"; "ws-hit store" ]
    ~better:J.Lower_better
    [
      ("pre-overhaul OF-LF", [ 8.0; 9.0; 11.0 ]);
      ("OF-LF", alloc_row (module Of_lf_v));
      ("OF-WF", alloc_row (module Of_wf_v));
    ];
  (* 2./3. pwb and pfence per committed update tx, persistent mode, at
     write sets spanning 1, 2 and 4 cache lines.  Line-dedup makes the
     data flushes per-line instead of per-word; the pre-overhaul rows are
     2 + log_lines + nw (LF) and +3 for the WF request round-trip, with
     log_lines = nw/4 + 1 (8-word entries measured at the base commit;
     4- and 16-word entries from the same pre-dedup formula). *)
  let pwb_counts (type a) (module T : Tm.Tm_intf.S with type t = a) (t : a)
      ~nw =
    ignore (T.update_tx t (fun tx -> T.store tx (T.root t 0) 1; 0));
    let st = Region.stats (T.region t) in
    let snap = Pstats.copy st in
    let ntx = 50 in
    for k = 1 to ntx do
      ignore
        (T.update_tx t (fun tx ->
             for i = 0 to nw - 1 do
               T.store tx (T.root t i) (k + i)
             done;
             0))
    done;
    let d = Pstats.diff st snap in
    ( float_of_int d.Pstats.pwb /. float_of_int ntx,
      float_of_int d.Pstats.pfence /. float_of_int ntx )
  in
  let lf_point ~nw =
    let t = Lf.create ~size:vol_size ~ws_cap:64 ~num_roots:16 () in
    Lf.attach_telemetry t !tele;
    pwb_counts (module Lf) t ~nw
  in
  let wf_point ~nw =
    let t = Wf.create ~size:vol_size ~ws_cap:64 ~num_roots:16 () in
    Wf.attach_telemetry t !tele;
    pwb_counts (module Wf) t ~nw
  in
  let widths = [ 4; 8; 16 ] in
  let lf_pts = List.map (fun nw -> lf_point ~nw) widths in
  let wf_pts = List.map (fun nw -> wf_point ~nw) widths in
  emit ~label_col:"series" ~title:"Hotpath: pwb per committed update tx"
    ~columns:[ "4w/1-line"; "8w/2-line"; "16w/4-line" ]
    ~better:J.Lower_better
    [
      ("pre-overhaul OF-LF", [ 8.0; 13.0; 23.0 ]);
      ("pre-overhaul OF-WF", [ 11.0; 16.0; 26.0 ]);
      ("OF-LF", List.map fst lf_pts);
      ("OF-WF", List.map fst wf_pts);
    ];
  (* The simulated [pwb] flushes its line eagerly, so the commit path
     issues no pfence at all (the fence cost is charged at create and
     recovery only); this row is 0 by design and gates against a per-tx
     fence sneaking back in. *)
  emit ~label_col:"series" ~title:"Hotpath: pfence per committed update tx"
    ~columns:[ "4w/1-line"; "8w/2-line"; "16w/4-line" ]
    ~better:J.Lower_better
    [ ("OF-LF", List.map snd lf_pts); ("OF-WF", List.map snd wf_pts) ];
  (* 4. Helper work under write-write contention: 8 threads hammering
     overlapping 12-word write sets.  Raw deterministic counts (Info):
     helps = foreign write-sets applied, early-exits = helper apply loops
     abandoned at a K-entry request re-check, dcas-fail = DCAS attempts
     that lost their race. *)
  let contention (type a) (module T : Tm.Tm_intf.S with type t = a) (t : a)
      ~seed =
    let st = Region.stats (T.region t) in
    let snap = Pstats.copy st in
    let sp =
      {
        Bench_runner.threads = 8;
        cores;
        rounds = mode.rounds;
        seed = mix seed;
        policy = Sched.Round_robin;
      }
    in
    let ops =
      Bench_runner.run_ops sp (fun ~tid ~rng ->
          let base = Rng.int rng 4 in
          ignore
            (T.update_tx t (fun tx ->
                 for i = 0 to 11 do
                   T.store tx (T.root t ((base + i) mod 16)) (tid + i)
                 done;
                 0)))
    in
    let d = Pstats.diff st snap in
    [
      float_of_int ops;
      float_of_int d.Pstats.helps;
      float_of_int d.Pstats.help_exits;
      float_of_int d.Pstats.dcas_fail;
    ]
  in
  let lf_c = Lf.create ~size:vol_size ~ws_cap:64 ~num_roots:16 () in
  Lf.attach_telemetry lf_c !tele;
  let wf_c = Wf.create ~size:vol_size ~ws_cap:64 ~num_roots:16 () in
  Wf.attach_telemetry wf_c !tele;
  emit ~label_col:"series" ~title:"Hotpath: helper work under contention"
    ~columns:[ "commits"; "helps"; "early-exits"; "dcas-fail" ]
    ~better:J.Info
    [
      ("OF-LF", contention (module Lf) lf_c ~seed:4242);
      ("OF-WF", contention (module Wf) wf_c ~seed:4243);
    ];
  (* 5. Throughput on the same shapes (4 threads, simulated rounds). *)
  let thr (module T : TM_FRESH) =
    let t = T.fresh () in
    ignore (T.update_tx t (fun tx -> T.store tx (T.root t 0) 1; 0));
    let ro =
      Bench_runner.throughput
        (spec mode ~threads:4 ~seed:11)
        (fun ~tid:_ ~rng:_ ->
          ignore (T.read_tx t (fun tx -> T.load tx (T.root t 0))))
    in
    let up =
      Bench_runner.throughput
        (spec mode ~threads:4 ~seed:13)
        (fun ~tid ~rng:_ ->
          ignore
            (T.update_tx t (fun tx ->
                 for i = 0 to 7 do
                   T.store tx (T.root t i) (tid + i)
                 done;
                 0)))
    in
    [ ro; up ]
  in
  emit ~label_col:"series" ~title:"Hotpath: throughput (ops/kround, 4 threads)"
    ~columns:[ "ro-load"; "update-8w" ]
    ~better:J.Higher_better
    [ ("OF-LF", thr (module Of_lf_v)); ("OF-WF", thr (module Of_wf_v)) ]
  ;
  emit ~label_col:"series" ~title:"Hotpath: router steps per transaction"
    ~columns:[ "update-8w" ]
    ~better:J.Lower_better
    [
      ("pre-route-once Shard-LF 1-shard", [ 35.0 ]);
      ("Shard-LF 1-shard", [ router_steps_per_tx () ]);
    ]

(* ------------------------------------------------------------------ *)
(* Figure "shards" (extension): the Tm_shard cross-shard router.
   Throughput and pwb per committed transaction at 1/2/4/8 shards under
   0/10/25/50% cross-shard transfer mixes, for LF and WF shard
   instances.  Each cell is one Shard_bench run (16 threads — the
   group-commit batcher amortizes its one durable record + fence over
   the requests that accumulate, so the figure oversubscribes the 8
   simulated cores to give it a realistic arrival stream; Shard_bench
   widens the scheduler to threads cores so the leader's critical path
   is not stretched by scheduling gaps).  The workload's account-total
   invariant is asserted on every cell, so a router consistency bug
   fails the figure instead of skewing it.  The cross mixes exercise
   the batched 2PC pipeline: at a fixed mix, throughput must scale WITH
   the shard count, not collapse below the single-shard row.  (OF-WF's
   single-shard row is a deliberately brutal baseline: its operation
   combining improves super-linearly with thread count, so the sharded
   WF rows trade combining degree for shard parallelism and only win
   back the difference at moderate mixes; OF-LF scales monotonically at
   every mix.) *)

let fig_shards mode =
  let shard_counts = [ 1; 2; 4; 8 ] in
  let mixes = [ 0; 10; 25; 50 ] in
  let columns = List.map (fun m -> Printf.sprintf "%d%% cross" m) mixes in
  let rounds = mode.rounds / 4 in
  let grid ~wf =
    List.map
      (fun n ->
        ( n,
          List.map
            (fun pct ->
              let r =
                Shard_bench.run ~wf ~telemetry:!tele ~shards:n ~cross_pct:pct
                  ~threads:16 ~rounds
                  ~seed:(mix (31 + (97 * n) + pct + (if wf then 1 else 0)))
                  ()
              in
              if not r.Shard_bench.conserved then
                failwith
                  (Printf.sprintf
                     "shards figure: account total not conserved (%s, %d \
                      shards, %d%% cross)"
                     (if wf then "WF" else "LF")
                     n pct);
              r)
            mixes ))
      shard_counts
  in
  let label n = Printf.sprintf "%d shard%s" n (if n = 1 then "" else "s") in
  let thr_rows g =
    List.map
      (fun (n, cells) ->
        ( label n,
          List.map
            (fun r ->
              float_of_int r.Shard_bench.ops *. 1000.0 /. float_of_int rounds)
            cells ))
      g
  in
  let pwb_rows g =
    List.map
      (fun (n, cells) ->
        ( label n,
          List.map
            (fun r ->
              float_of_int r.Shard_bench.pwb
              /. float_of_int (max 1 r.Shard_bench.ops))
            cells ))
      g
  in
  let glf = grid ~wf:false in
  let gwf = grid ~wf:true in
  emit ~label_col:"shards"
    ~title:"Sharded OF-LF: throughput (ops/kround, 16 threads)" ~columns
    ~better:J.Higher_better (thr_rows glf);
  emit ~label_col:"shards" ~title:"Sharded OF-LF: pwb per committed tx"
    ~columns ~better:J.Lower_better (pwb_rows glf);
  emit ~label_col:"shards"
    ~title:"Sharded OF-WF: throughput (ops/kround, 16 threads)" ~columns
    ~better:J.Higher_better (thr_rows gwf);
  emit ~label_col:"shards" ~title:"Sharded OF-WF: pwb per committed tx"
    ~columns ~better:J.Lower_better (pwb_rows gwf)

(* ------------------------------------------------------------------ *)
(* Figure "elastic" (extension): live range migration under traffic
   (DESIGN.md §14).  Shard_bench.run_elastic runs a read-mostly
   transfer mix while a migrator fiber storms split/merge cycles around
   the shard ring, so traffic keeps crossing live moves and epoch
   flips.  Three hard gates fail the figure instead of skewing it: the
   account total must survive the post-run recovery (which lands
   mid-migration whenever the round cap caught the migrator in its copy
   loop), every read-only sum must see the invariant total (a torn
   snapshot cut across a move), and no completed migration window may
   contain zero read-only commits — the elasticity claim that the
   snapshot read path never stalls while a range moves.  The "min
   RO/window" column carries that last gate into the committed JSON so
   bench_diff also guards it against erosion. *)

let fig_elastic mode =
  let rounds = mode.rounds / 2 in
  let threads = 8 in
  let shard_counts = [ 2; 4 ] in
  let cell ~wf n =
    let r =
      Shard_bench.run_elastic ~wf ~telemetry:!tele ~shards:n ~threads ~rounds
        ~seed:(mix (17 + (53 * n) + if wf then 1 else 0))
        ()
    in
    let fail msg =
      failwith
        (Printf.sprintf "elastic figure: %s (%s, %d shards)" msg
           (if wf then "WF" else "LF")
           n)
    in
    if not r.Shard_bench.e_conserved then
      fail "account total not conserved after recovery";
    if not r.Shard_bench.e_ro_consistent then
      fail "a read-only sum saw a torn snapshot during a live move";
    if r.Shard_bench.e_migrations = 0 then
      fail "no migration completed (the figure exercised nothing)";
    if r.Shard_bench.e_min_ro = 0 then
      fail "read-only throughput dropped to zero during a migration";
    r
  in
  let label ~wf n = Printf.sprintf "%s %d shards" (if wf then "WF" else "LF") n in
  let grid =
    List.concat_map
      (fun wf -> List.map (fun n -> (label ~wf n, cell ~wf n)) shard_counts)
      [ false; true ]
  in
  let per_kround ops = float_of_int ops *. 1000.0 /. float_of_int rounds in
  emit ~label_col:"series"
    ~title:
      (Printf.sprintf
         "Elastic migration storm: traffic throughput (ops/kround, %d threads)"
         threads)
    ~columns:[ "updates"; "ro-sums" ]
    ~better:J.Higher_better
    (List.map
       (fun (l, r) ->
         ( l,
           [
             per_kround r.Shard_bench.e_updates;
             per_kround r.Shard_bench.e_ro;
           ] ))
       grid);
  emit ~label_col:"series"
    ~title:"Elastic migration storm: reads survive every migration window"
    ~columns:[ "migrations"; "min RO/window"; "map epoch" ]
    ~better:J.Higher_better
    (List.map
       (fun (l, r) ->
         ( l,
           [
             float_of_int r.Shard_bench.e_migrations;
             float_of_int r.Shard_bench.e_min_ro;
             float_of_int r.Shard_bench.e_epoch;
           ] ))
       grid);
  emit ~label_col:"series"
    ~title:"Elastic migration storm: pwb per committed tx"
    ~columns:[ "pwb/tx" ] ~better:J.Lower_better
    (List.map
       (fun (l, r) ->
         ( l,
           [
             float_of_int r.Shard_bench.e_pwb
             /. float_of_int (max 1 (r.Shard_bench.e_updates + r.Shard_bench.e_ro));
           ] ))
       grid)

(* ------------------------------------------------------------------ *)
(* Figure "readmix" (extension): read-mostly scaling of the wait-free
   snapshot-read path (DESIGN.md §13).  Linked-list sets at 90/10 and
   99/1 read/write mixes, 1-16 threads.  OF-LF-val is the deleted
   pre-snapshot validating read path on the same engine — the
   before/after comparison: its read-only scans restarted whenever a
   writer committed mid-traversal, the snapshot path never does.  Its
   column is embedded constants (see [readmix_validating]).  Shard-LF
   routes the identical workload through a 4-shard router
   (read-only traversals that cross shards take the epoch-vector cut
   without entering the 2PC prepare queues).  RomLR is the left-right
   design exemplar (persistent, so its writers also pay pwbs);
   HarrisHE is the native lock-free list. *)

(* OF-LF-val as measured by this figure, at the default seed, on the last
   commit that still had the validating read path (before in-cell version
   chains replaced the version store), keyed by (list keys, update
   per-mille) and thread count — embedded the way --figure hotpath embeds
   its pre-overhaul series, so the comparison survives the deletion. *)
let readmix_validating ~keys ~upd th =
  let rows =
    match (keys, upd) with
    | 128, 100 -> [ (1, 3.85); (2, 6.8); (4, 13.55); (8, 20.75); (16, 18.6) ]
    | 128, 10 -> [ (1, 3.8); (2, 7.65); (4, 14.65); (8, 29.75); (16, 27.7) ]
    | 512, 100 -> [ (1, 0.93); (2, 1.77); (4, 3.37); (8, 5.23); (16, 5.2) ]
    | 512, 10 -> [ (1, 0.95); (2, 1.98); (4, 3.75); (8, 7.58); (16, 7.4) ]
    | _ -> []
  in
  Option.value (List.assoc_opt th rows) ~default:0.0

let fig_readmix mode =
  let threads = List.filter (fun t -> t <= 16) mode.threads in
  let keys = mode.list_keys in
  let series =
    [
      ("OF-LF", Ll_of_lf.point);
      ("OF-WF", Ll_of_wf.point);
      ("OF-LF-val", fun ~keys ~update_pct sp ->
          readmix_validating ~keys ~upd:update_pct sp.Bench_runner.threads);
      ("Shard-LF", Ll_sh_lf.point);
      ("TinySTM", Ll_tiny.point);
      ("RomLR", Ll_romlr.point);
      ("HarrisHE", harris_point);
    ]
  in
  List.iter
    (fun upd ->
      let title =
        Printf.sprintf
          "Read-mostly linked-list sets, %d keys, %d/%d read/write mix (ops \
           per kround)"
          keys
          ((1000 - upd) / 10)
          (upd / 10)
      in
      let rows =
        List.map
          (fun th ->
            let sp = spec mode ~threads:th ~seed:(th + (upd * 13)) in
            ( string_of_int th,
              List.map
                (fun (_, point) -> point ~keys ~update_pct:upd sp)
                series ))
          threads
      in
      emit ~title ~columns:(List.map fst series) ~better:J.Higher_better rows)
    [ 100; 10 ]

(* ------------------------------------------------------------------ *)
(* Driver *)

let figures =
  [
    ("fig2", "SPS volatile (Fig. 2)");
    ("fig3", "SPS volatile with allocation (Fig. 3)");
    ("fig4", "queues volatile (Fig. 4)");
    ("fig5", "linked-list sets volatile (Fig. 5)");
    ("fig6", "tree sets volatile (Fig. 6)");
    ("fig7", "latency percentiles (Fig. 7)");
    ("fig8", "SPS persistent (Fig. 8)");
    ("fig9", "linked-list sets persistent (Fig. 9)");
    ("fig10", "tree sets persistent (Fig. 10)");
    ("fig11", "hash sets persistent (Fig. 11)");
    ("fig12", "persistent queues and kill test (Fig. 12)");
    ("table1", "persistence-cost table (§V-B)");
    ("crashes", "crash-recovery campaign (extension)");
    ("ablation", "design-choice ablations (extension)");
    ("micro", "bechamel primitive micro-benchmarks");
    ("hotpath", "hot-path cost trajectory: alloc/op, pwb per tx, helper work (extension)");
    ("shards", "sharded router: throughput and pwb vs cross-shard mix (extension)");
    ("elastic", "elastic sharding: live range migration under traffic (extension)");
    ("readmix", "read-mostly mixes: wait-free snapshot reads vs validating reads (extension)");
  ]

let run_figure mode mode_name name =
  tables := [];
  tele := Telemetry.create ();
  pr "@.==== %s ====@."
    (try List.assoc name figures with Not_found -> name);
  (match name with
  | "fig2" -> fig_sps mode ~alloc:false ~persistent:false
  | "fig3" -> fig_sps mode ~alloc:true ~persistent:false
  | "fig4" -> fig_queues mode
  | "fig5" ->
      fig_sets mode ~name:"Linked-list sets" ~keys:mode.list_keys
        ~series:
          [
            ("OF-LF", Ll_of_lf.point);
            ("OF-WF", Ll_of_wf.point);
            ("TinySTM", Ll_tiny.point);
            ("ESTM", Ll_estm.point);
            ("HarrisHE", harris_point);
          ]
  | "fig6" ->
      fig_sets mode ~name:"Tree sets" ~keys:mode.tree_keys
        ~series:
          [
            ("OF-LF", Tree_of_lf.point);
            ("OF-WF", Tree_of_wf.point);
            ("TinySTM", Tree_tiny.point);
            ("ESTM", Tree_estm.point);
            ("NataHE*", efrb_point);
          ]
  | "fig7" -> fig_latency mode
  | "fig8" -> fig_sps mode ~alloc:false ~persistent:true
  | "fig9" ->
      fig_sets mode ~name:"Persistent linked-list sets" ~keys:(mode.list_keys / 2)
        ~series:
          [
            ("OF-LF", Ll_of_lf_p.point);
            ("OF-WF", Ll_of_wf_p.point);
            ("PMDK", Ll_pmdk.point);
            ("RomLog", Ll_romlog.point);
            ("RomLR", Ll_romlr.point);
          ]
  | "fig10" ->
      fig_sets mode ~name:"Persistent tree sets" ~keys:mode.tree_keys
        ~series:
          [
            ("OF-LF", Tree_of_lf_p.point);
            ("OF-WF", Tree_of_wf_p.point);
            ("PMDK", Tree_pmdk.point);
            ("RomLog", Tree_romlog.point);
            ("RomLR", Tree_romlr.point);
          ]
  | "fig11" ->
      fig_sets mode ~name:"Persistent hash sets" ~keys:mode.tree_keys
        ~series:
          [
            ("OF-LF", Hash_of_lf_p.point);
            ("OF-WF", Hash_of_wf_p.point);
            ("PMDK", Hash_pmdk.point);
            ("RomLog", Hash_romlog.point);
            ("RomLR", Hash_romlr.point);
          ]
  | "fig12" ->
      fig_pqueues mode;
      fig_kill mode
  | "table1" -> fig_table1 ()
  | "crashes" -> fig_crashes ()
  | "ablation" -> fig_ablation mode
  | "micro" -> micro ()
  | "hotpath" -> fig_hotpath mode
  | "shards" -> fig_shards mode
  | "elastic" -> fig_elastic mode
  | "readmix" -> fig_readmix mode
  | other -> pr "unknown figure %s@." other);
  {
    J.figure = name;
    bench_mode = mode_name;
    cores;
    rounds = mode.rounds;
    threads = mode.threads;
    seed = !base_seed;
    params = [ ("list_keys", mode.list_keys); ("tree_keys", mode.tree_keys) ];
    tables = List.rev !tables;
    telemetry = J.telemetry_items (Telemetry.snapshot !tele);
  }

let () =
  let figure = ref "all" in
  let use_full = ref false in
  let json = ref false in
  let out = ref "" in
  let baseline_path = ref "" in
  let tolerance = ref 0.10 in
  let args =
    [
      ( "--figure",
        Arg.Set_string figure,
        "figure to run (fig2..fig12, table1, crashes, micro, all)" );
      ("--full", Arg.Set use_full, "full-size sweeps (slower)");
      ("--quick", Arg.Clear use_full, "quick sweeps (default)");
      ("--json", Arg.Set json, "also write each run as BENCH_<figure>.json");
      ( "--out",
        Arg.Set_string out,
        "output path for --json (single-figure runs only)" );
      ( "--baseline",
        Arg.Set_string baseline_path,
        "prior BENCH_*.json to diff against; exit 1 on regression" );
      ( "--tolerance",
        Arg.Set_float tolerance,
        "relative regression tolerance for --baseline (default 0.10)" );
      ( "--seed",
        Arg.Set_int base_seed,
        "base seed mixed into every workload seed (default 0)" );
    ]
  in
  Arg.parse args (fun a -> figure := a) "onefile benchmark harness";
  let mode = if !use_full then full else quick in
  let mode_name = if !use_full then "full" else "quick" in
  pr "# OneFile reproduction benchmarks — %s mode, %d simulated cores@."
    mode_name cores;
  let names =
    if !figure = "all" then List.map fst figures else [ !figure ]
  in
  let runs = List.map (run_figure mode mode_name) names in
  if !json then
    List.iter
      (fun (r : J.run) ->
        let path =
          if !out <> "" && List.length runs = 1 then !out
          else "BENCH_" ^ r.J.figure ^ ".json"
        in
        J.write_run path r;
        pr "@.wrote %s@." path)
      runs;
  if !baseline_path <> "" then begin
    match runs with
    | [ current ] ->
        let baseline = J.read_run !baseline_path in
        let regs = J.diff ~tolerance:!tolerance ~baseline ~current () in
        if regs = [] then pr "@.baseline %s: no regressions@." !baseline_path
        else begin
          pr "@.baseline %s: %d regression(s)@." !baseline_path
            (List.length regs);
          List.iter (fun r -> pr "  %a@." J.pp_regression r) regs;
          exit 1
        end
    | _ ->
        prerr_endline "--baseline requires a single --figure";
        exit 2
  end
