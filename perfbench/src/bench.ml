(* One benchmark run: set-up, the simulated phase, the wall-clock phase,
   the correctness checks, and — with tracing — the traced repeats of
   both phases that the per-layer metrics come from. *)

open Runtime

type spec = {
  name : string;
  fibers : int;  (** simulated clients *)
  cores : int;  (** simulated CPUs *)
  rounds : int;  (** length of the simulated phase *)
  setup : seed:int -> traced:bool -> wall:bool -> Phase.instance;
}

let domains = 2

let kv ~engine ~write_permille ~zipf ~fibers =
  Kv.setup { Kv.engine; write_permille; zipf; threads = max fibers domains }

let specs =
  [
    { name = "kv-read"; fibers = 8; cores = 8; rounds = 1_200_000;
      setup = kv ~engine:Kv.Lf_ptm ~write_permille:50 ~zipf:false ~fibers:8 };
    { name = "kv-update"; fibers = 16; cores = 8; rounds = 1_500_000;
      setup = kv ~engine:Kv.Wf_ptm ~write_permille:600 ~zipf:true ~fibers:16 };
    { name = "bank-shard"; fibers = 16; cores = 16; rounds = 1_000_000;
      setup = Bank.setup ~threads:16 };
  ]

type metric = { m_name : string; value : float; unit : string }

let m m_name unit value = { m_name; value; unit }

type result = {
  correct : bool;
  errors : string list;
  attempted : int;
  failed : int;
  end_to_end : metric list;  (** the result line of a [--trace 0] run *)
  per_layer : metric list;  (** the result line of a [--trace 1] run *)
  printed : metric list;
      (** end-to-end metrics that read 0 at this commit: printed, and kept
          out of the result line *)
  notes : string list;  (** human-readable lines printed before the result *)
}

type sim_summary = {
  ops_per_kround : float;
  p50 : float;
  samples : int;
  p99 : float;
  above_p99 : int;
  pwb : float;
  pfence : float;
}

let summarize (s : Phase.sim) =
  let p50, _ = Stats.percentile s.lat 0.50 in
  let p99, above = Stats.percentile s.lat 0.99 in
  {
    ops_per_kround = 1000.0 *. float_of_int s.ops /. float_of_int s.rounds;
    p50;
    samples = Array.length s.lat;
    p99;
    above_p99 = above;
    pwb = Stats.ratio s.pstats.pwb s.ops;
    pfence = Stats.ratio s.pstats.pfence s.ops;
  }

let counter (snap : Telemetry.snapshot) suffix =
  (* shard instances prefix their keys ("s0.tx.commits"): sum them all *)
  List.fold_left
    (fun acc (k, v) ->
      if k = suffix || String.ends_with ~suffix:("." ^ suffix) k then acc + v
      else acc)
    0 snap.counters

let span_mean (snap : Telemetry.snapshot) name =
  match List.assoc_opt name snap.spans with
  | Some s -> s.Telemetry.mean
  | None -> 0.0

let ledger label tr =
  List.filter_map
    (fun k ->
      let a = Trace.agg tr k in
      if a.Trace.count = 0 then None
      else
        Some
          (Printf.sprintf "span %-6s %-24s count=%d total=%d self=%d" label
             (Trace.name k) a.count a.total a.self))
    Trace.all

let router_kinds =
  Trace.[ R_update; R_read; R_load; R_store; R_alloc; R_free ]

let self_sum tr kinds =
  List.fold_left (fun acc k -> acc + (Trace.agg tr k).Trace.self) 0 kinds

(* Run [f] in a child process forked from the current state and return
   its result.  Each simulated phase runs this way, so every one starts
   from the same process-global state (the library seeds each Backoff
   instance from a process-wide counter, which a previous phase in the
   same process would have advanced).  Only valid before any domain is
   spawned. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc (r : ('a, string) Stdlib.result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        match (Marshal.from_channel ic : ('a, string) Stdlib.result) with
        | r -> r
        | exception End_of_file -> Error "simulated phase died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match r with Ok v -> v | Error m -> failwith m)

type sim_out = {
  sim : Phase.sim;
  errors : string list;
  tele : Telemetry.snapshot;
  spans : Trace.t;
  extra : (string * float) list;
  setup_time : float;
  top_heap_words : int;
}

let extra_setups = 7

let run ?(scale = 1.0) ?trace_dir spec ~seed ~seconds ~trace =
  let rounds = max 1000 (int_of_float (float_of_int spec.rounds *. scale)) in
  let timed_setup ~traced ~wall =
    Gc.full_major ();
    let t0 = Phase.now_ns () in
    let inst = spec.setup ~seed ~traced ~wall in
    (inst, float_of_int (Phase.now_ns () - t0) *. 1e-9)
  in
  let setup_times = ref [] in
  let setup ~traced ~wall =
    let inst, dt = timed_setup ~traced ~wall in
    setup_times := dt :: !setup_times;
    inst
  in
  for _ = 1 to extra_setups do
    ignore (setup ~traced:false ~wall:false)
  done;
  let errors = ref [] in
  let err stage l = errors := !errors @ List.map (fun e -> stage ^ ": " ^ e) l in
  let attempted = ref 0 and failed = ref 0 in
  let tally a f =
    attempted := !attempted + a;
    failed := !failed + f
  in
  let sim ~traced =
    let o =
      in_child (fun () ->
          let inst, setup_time = timed_setup ~traced ~wall:false in
          let tele = Telemetry.create () in
          let spans = Trace.create Trace.Sim in
          if traced then begin
            inst.Phase.attach tele;
            Trace.start spans
          end;
          let sim =
            Phase.sim inst ~fibers:spec.fibers ~cores:spec.cores ~rounds ~seed
          in
          Trace.stop ();
          Trace.finish spans;
          let errors = inst.verify ~crash:true in
          { sim; errors; tele = Telemetry.snapshot tele; spans;
            extra = inst.extra (); setup_time;
            top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words })
    in
    setup_times := o.setup_time :: !setup_times;
    tally o.sim.attempted o.sim.failed;
    err (if traced then "traced sim" else "sim") o.errors;
    o
  in
  let wall ~traced ~seconds =
    let inst = setup ~traced ~wall:true in
    let tr = Trace.create Trace.Wall in
    if traced then Trace.start tr;
    let w = Phase.wall inst ~domains ~seconds ~seed in
    Trace.stop ();
    Trace.finish tr;
    tally w.w_attempted w.w_failed;
    err (if traced then "traced wall" else "wall") (inst.verify ~crash:false);
    (w, tr)
  in
  let o0 = sim ~traced:false in
  let s0 = o0.sim in
  let sum0 = summarize s0 in
  if sum0.above_p99 < 10 then
    err "sim"
      [ Printf.sprintf "only %d samples above p99 (need >= 10)" sum0.above_p99 ];
  let o1 = if trace then Some (sim ~traced:true) else None in
  let wall_seconds = if trace then seconds /. 2.0 else seconds in
  let w0, _ = wall ~traced:false ~seconds:wall_seconds in
  let top_heap_words =
    max o0.top_heap_words (Gc.quick_stat ()).Gc.top_heap_words
  in
  let e2e =
    [ m "sim_ops_per_kround" "ops/kround" sum0.ops_per_kround;
      m "sim_lat_p50_rounds" "rounds" sum0.p50;
      m "sim_lat_p99_rounds" "rounds" sum0.p99;
      m "pwb_per_op" "count" sum0.pwb;
      m "wall_ops_s" "ops/s" w0.ops_s;
      m "mem_peak_mb" "MB"
        (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6);
      m "setup_s" "s" (Stats.median !setup_times) ]
  in
  let notes =
    ref
      [ Printf.sprintf "workload %s seed %d: sim %d fibers on %d cores, %d rounds; wall %d domains, %.1f s"
          spec.name seed spec.fibers spec.cores rounds domains wall_seconds;
        Printf.sprintf "sim: %d ops, %d latency samples, %d above p99"
          s0.ops sum0.samples sum0.above_p99;
        "sim latency quantiles (rounds):"
        ^ String.concat ""
            (List.map
               (fun q ->
                 Printf.sprintf " p%g=%.1f" (100.0 *. q)
                   (fst (Stats.percentile s0.lat q)))
               [ 0.1; 0.25; 0.4; 0.45; 0.5; 0.55; 0.6; 0.75; 0.9; 0.99; 0.999 ]);
        Printf.sprintf "wall: %d ops over %d intervals, host.calib_ns %s"
          w0.w_ops (List.length w0.rates)
          (String.concat " -> " (List.map (Printf.sprintf "%.2f") w0.calib));
        (let r = Array.of_list (List.sort compare w0.rates) in
         let q p = r.(min (Array.length r - 1) (int_of_float (p *. float_of_int (Array.length r)))) in
         Printf.sprintf "wall per-interval ops/s: p10=%.0f p50=%.0f p90=%.0f" (q 0.1) (q 0.5) (q 0.9)) ]
  in
  let per_layer =
    if not trace then []
    else begin
      let o1 = Option.get o1 in
      let s1 = o1.sim and tele = o1.tele and trs = o1.spans in
      let sum1 = summarize s1 in
      if sum1 <> sum0 || s1.lat <> s0.lat || s1.steps <> s0.steps then
        err "traced sim"
          [ Printf.sprintf
              "diverged from the untraced run (ops %d vs %d, steps %d vs %d)"
              s1.ops s0.ops s1.steps s0.steps ];
      let w1, trw = wall ~traced:true ~seconds:wall_seconds in
      (match trace_dir with
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let base = Printf.sprintf "%s/%s-seed%d" dir spec.name seed in
          Trace.write_tsv trs (base ^ "-sim.tsv");
          Trace.write_tsv trw (base ^ "-wall.tsv")
      | None -> ());
      notes := !notes @ ledger "sim" trs @ ledger "wall" trw;
      let ops = s0.ops and wops = w1.w_ops in
      let a k = Trace.agg trs k and aw k = Trace.agg trw k in
      let c = counter tele in
      let st = s0.pstats in
      let closures = (a Closure).count in
      let extra n =
        Option.value ~default:0.0 (List.assoc_opt n o0.extra)
      in
      [ m "sched.steps_per_op" "count" (Stats.ratio s0.steps ops);
        m "region.cas_per_op" "count" (Stats.ratio st.cas ops);
        m "region.dcas_per_op" "count" (Stats.ratio st.dcas ops);
        m "region.dcas_fail_per_op" "count" (Stats.ratio st.dcas_fail ops);
        m "region.loads_per_op" "count" (Stats.ratio st.loads ops);
        m "region.pfence_per_op" "count" (Stats.ratio st.pfence ops);
        m "hash_set.self_ns" "ns" (Stats.ratio (aw Hs_op).self wops);
        m "hash_set.txs_per_op" "count"
          (Stats.ratio ((a Update_tx).count + (a Read_tx).count) (a Hs_op).count);
        m "core0.update_self_rounds" "rounds" (Stats.ratio (a Update_tx).self ops);
        m "core0.update_self_ns" "ns" (Stats.ratio (aw Update_tx).self wops);
        m "core0.read_self_rounds" "rounds" (Stats.ratio (a Read_tx).self ops);
        m "core0.read_self_ns" "ns" (Stats.ratio (aw Read_tx).self wops);
        m "core0.closure_runs_per_commit" "count"
          (Stats.ratio closures (a Update_tx).count);
        m "core0.aborts_per_commit" "count"
          (Stats.ratio (c "tx.aborts") (c "tx.commits"));
        m "core0.helps_per_commit" "count"
          (Stats.ratio (c "tx.helps") (c "tx.commits"));
        m "core0.foreign_closure_share" "ratio"
          (Stats.ratio (Trace.foreign trs Closure) closures);
        m "onefile_wf.aggregated_per_published" "ratio"
          (Stats.ratio (c "wf.aggregated") (c "wf.published"));
        m "tm.update_load_rounds" "rounds" (Stats.ratio (a Load_update).total ops);
        m "tm.update_load_ns" "ns" (Stats.ratio (aw Load_update).total wops);
        m "tm.store_ns" "ns" (Stats.ratio (aw Store).total wops);
        m "tm.stores_per_op" "count" (Stats.ratio (a Store).count ops);
        m "tm.snapshot_load_rounds" "rounds" (Stats.ratio (a Load_read).total ops);
        m "tm.snapshot_load_ns" "ns" (Stats.ratio (aw Load_read).total wops);
        m "tm.loads_per_op" "count"
          (Stats.ratio ((a Load_update).count + (a Load_read).count) ops);
        m "tm_alloc.alloc_rounds" "rounds" (Stats.ratio (a Alloc).total ops);
        m "tm_alloc.alloc_ns" "ns" (Stats.ratio (aw Alloc).total wops);
        m "tm_alloc.free_ns" "ns" (Stats.ratio (aw Free).total wops);
        m "tm_alloc.allocs_per_op" "count" (Stats.ratio (a Alloc).count ops);
        m "he.retired_per_op" "count" (Stats.ratio (c "he.retired") ops);
        m "he.scans_per_op" "count" (Stats.ratio (c "he.scans") ops);
        m "tm_shard.self_rounds" "rounds" (Stats.ratio (self_sum trs router_kinds) ops);
        m "tm_shard.self_ns" "ns" (Stats.ratio (self_sum trw router_kinds) wops);
        m "tm_shard.shard_txs_per_op" "count"
          (if (a R_update).count + (a R_read).count = 0 then 0.0
           else Stats.ratio ((a Update_tx).count + (a Read_tx).count) ops);
        m "tm_shard.cross_share" "ratio"
          (Stats.ratio (c "router.enqueues") (a R_update).count);
        m "tm_shard.batch_size" "count" (span_mean tele "router.batch_size");
        m "tm_shard.helps_per_batch" "count"
          (Stats.ratio (c "router.helps") (c "router.batch_commits"));
        m "tm_shard.ro_snapshot_load_rounds" "rounds"
          (Stats.ratio (a Snap_load).total ops);
        m "tm_shard.migrate_rounds" "rounds"
          (Stats.ratio ((a Split).total + (a Merge).total)
             ((a Split).count + (a Merge).count));
        m "tm_shard.detoured_per_migration" "count"
          (span_mean tele "router.migration_stall");
        m "tm_shard.migration_stall_rounds" "rounds"
          (extra "tm_shard.migration_stall_rounds");
        m "tm_shard.migrate_refused_share" "ratio"
          (extra "tm_shard.migrate_refused_share");
        m "gc.minor_words_per_op" "words"
          (w0.minor_words /. float_of_int (max 1 w0.w_ops));
        m "gc.major_collections_per_kop" "count"
          (1000.0 *. Stats.ratio w0.majors w0.w_ops);
        m "host.calib_ns" "ns" (Stats.median (w0.calib @ w1.calib));
        m "trace.wall_ops_s_traced" "ops/s" w1.ops_s;
        m "trace.overhead_share" "ratio"
          (if w0.ops_s = 0.0 then 0.0 else 1.0 -. (w1.ops_s /. w0.ops_s));
        m "trace.dropped_spans" "count"
          (float_of_int (Trace.dropped trs + Trace.dropped trw)) ]
    end
  in
  {
    correct = !errors = [];
    errors = !errors;
    attempted = !attempted;
    failed = !failed;
    end_to_end = e2e;
    per_layer;
    printed =
      [ m "pfence_per_op" "count" sum0.pfence;
        m "fail_ratio" "ratio" (Stats.ratio !failed !attempted) ];
    notes = !notes;
  }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line r ~trace =
  let ms = if trace then r.per_layer else r.end_to_end in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name
              (json_number x.value) x.unit)
          ms))
