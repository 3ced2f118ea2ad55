(* The two measurement phases every workload runs: a closed-loop
   simulated phase under Runtime.Sched, and a closed-loop wall-clock phase
   on real domains.  A workload supplies an [instance]; the phases only
   call its [op]. *)

open Runtime

type outcome =
  | Done  (** a data operation completed; it is timed and counted *)
  | Admin  (** a maintenance call (split/merge) completed; not timed *)
  | Failed  (** raised, or was refused *)

type instance = {
  op : tid:int -> rng:Rng.t -> outcome;
  device : Pmem.Region.t;  (** the region whose Pstats the phase reads *)
  attach : Telemetry.t -> unit;
  verify : crash:bool -> string list;
      (** Check the workload's invariant against what the operations
          acknowledged; with [crash], first crash the device (evicting a
          seeded half of the dirty lines) and recover.  Returns the failed
          checks.  Only simulated runs are crashed: the simulated device
          flushes a cache line in several steps, which is atomic under the
          cooperative scheduler but not between real domains. *)
  extra : unit -> (string * float) list;
      (** workload-specific per-layer figures gathered by [op] *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Ints between two threads' slots in a shared array: 128 bytes, so two
   domains never write the same cache line. *)
let pad = 16

(* Independent per-thread streams: the same seed gives the same inputs. *)
let rng_for ~seed ~tid = Rng.create ((seed * 1_000_003) + (tid * 7919) + 17)

type sim = {
  ops : int;  (** completed data operations *)
  attempted : int;
  failed : int;
  rounds : int;
  lat : int array;  (** sorted per-op latencies in rounds *)
  steps : int;
  pstats : Pmem.Pstats.t;  (** device counters over the phase *)
}

let sim inst ~fibers ~cores ~rounds ~seed =
  let lat = Stats.buf () in
  let ops = ref 0 and attempted = ref 0 and failed = ref 0 in
  let st = Pmem.Region.stats inst.device in
  let before = Pmem.Pstats.copy st in
  let body tid () =
    let rng = rng_for ~seed ~tid in
    while Sched.now () < rounds do
      let t0 = Sched.now () in
      incr attempted;
      match inst.op ~tid ~rng with
      | Done ->
          incr ops;
          Stats.push lat (Sched.now () - t0 + 1)
      | Admin -> ()
      | Failed -> incr failed
    done
  in
  let s =
    Sched.run ~cores ~seed ~policy:Sched.Round_robin ~max_rounds:rounds
      (Array.init fibers body)
  in
  {
    ops = !ops;
    attempted = !attempted;
    failed = !failed;
    rounds;
    lat = Stats.sorted lat;
    steps = Sched.total_steps s;
    pstats = Pmem.Pstats.diff st before;
  }

(* Host-drift indicator: a dependent walk over a 32 MB single-cycle
   permutation outside the OCaml heap, so every step is a cache miss and
   the figure tracks the memory system the wall phase runs on. *)
let calib_cells = 1 lsl 22
let calib_steps = 1 lsl 20

let calib_table =
  lazy
    (let open Bigarray in
     let a = Array1.create int c_layout calib_cells in
     for i = 0 to calib_cells - 1 do
       a.{i} <- i
     done;
     (* Sattolo's algorithm: one cycle through every cell *)
     let rng = Rng.create 7 in
     for i = calib_cells - 1 downto 1 do
       let j = Rng.int rng i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let calib_ns () =
  let a = Lazy.force calib_table in
  let t0 = now_ns () in
  let p = ref 0 in
  for _ = 1 to calib_steps do
    p := Bigarray.Array1.unsafe_get a !p
  done;
  let dt = now_ns () - t0 in
  if !p < 0 then invalid_arg "calib";
  float_of_int dt /. float_of_int calib_steps

type wall = {
  w_ops : int;  (** data operations completed over the whole phase *)
  w_attempted : int;
  w_failed : int;
  ops_s : float;  (** median of the per-interval rates after warm-up *)
  rates : float list;  (** the per-interval rates *)
  minor_words : float;  (** allocated by the worker domains *)
  majors : int;  (** major collections during the phase *)
  calib : float list;  (** calibration before and after *)
}

let interval_s = 0.1

let wall inst ~domains ~seconds ~seed =
  let c0 = calib_ns () in
  let counts = Array.make ((domains + 1) * pad) 0 in
  let stop = Atomic.make false in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let worker d () =
    Sched.set_domain_tid d;
    let rng = rng_for ~seed ~tid:d in
    let w0 = Gc.minor_words () in
    let n = ref 0 and a = ref 0 and f = ref 0 in
    while not (Atomic.get stop) do
      incr a;
      match inst.op ~tid:d ~rng with
      | Done ->
          incr n;
          counts.((d + 1) * pad) <- !n
      | Admin -> ()
      | Failed -> incr f
    done;
    (!n, !a, !f, Gc.minor_words () -. w0)
  in
  let total () =
    let s = ref 0 in
    for d = 0 to domains - 1 do
      s := !s + counts.((d + 1) * pad)
    done;
    !s
  in
  let t_start = now_ns () in
  let ds = Array.init domains (fun d -> Domain.spawn (worker d)) in
  let warmup = Float.min 1.0 (0.15 *. seconds) in
  let finish_at = t_start + int_of_float (seconds *. 1e9) in
  Unix.sleepf warmup;
  let rates = ref [] in
  let prev_t = ref (now_ns ()) and prev_c = ref (total ()) in
  while !prev_t < finish_at do
    Unix.sleepf interval_s;
    let t = now_ns () and c = total () in
    rates := float_of_int (c - !prev_c) *. 1e9 /. float_of_int (t - !prev_t) :: !rates;
    prev_t := t;
    prev_c := c
  done;
  Atomic.set stop true;
  let res = Array.map Domain.join ds in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 res in
  let c1 = calib_ns () in
  {
    w_ops = sum (fun (n, _, _, _) -> n);
    w_attempted = sum (fun (_, a, _, _) -> a);
    w_failed = sum (fun (_, _, f, _) -> f);
    ops_s = Stats.median !rates;
    rates = !rates;
    minor_words = Array.fold_left (fun acc (_, _, _, w) -> acc +. w) 0.0 res;
    majors = (Gc.quick_stat ()).Gc.major_collections - majors0;
    calib = [ c0; c1 ];
  }

