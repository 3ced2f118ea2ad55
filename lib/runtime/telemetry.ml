(* Counter/span registry for per-run telemetry.

   A [t] is a sink: named monotonic counters, named latency spans (bounded
   sample histograms), and pull sources (closures folded in at snapshot
   time — e.g. a region's Pstats).  Components hold a [sink]
   ([t option ref]) and fire pre-resolved handles on it; when no sink is
   attached every [tick]/[observe] is a cheap no-op, so instrumented hot
   paths cost one pointer load + branch when telemetry is off (measured
   in DESIGN.md §7). *)
(* mutable-ok: counters and span tallies are plain mutable state,
   incremented only between scheduling points of the cooperative Sched (or
   from sequential code) — the same confinement argument as Pmem.Pstats.
   The sources list and sink slot are written from sequential set-up code. *)

type span = {
  hist : Histogram.t;
  cap : int;
  mutable overflow : int; (* samples beyond [cap], not in [hist] *)
  mutable over_sum : int;
  mutable over_max : int;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  spans : (string, span) Hashtbl.t;
  mutable sources : (unit -> (string * int) list) list;
  span_cap : int;
  mutable gen : int; (* bumped by [reset]; invalidates resolved handles *)
}

let create ?(span_cap = 1 lsl 16) () =
  {
    counters = Hashtbl.create 32;
    spans = Hashtbl.create 8;
    sources = [];
    span_cap;
    gen = 0;
  }

let counter_cell t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr ?(by = 1) t name =
  let r = counter_cell t name in
  r := !r + by

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let span_cell t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
      let s =
        {
          hist = Histogram.create ();
          cap = t.span_cap;
          overflow = 0;
          over_sum = 0;
          over_max = 0;
        }
      in
      Hashtbl.add t.spans name s;
      s

(* Beyond [cap] exact samples the span degrades gracefully: extra samples
   land in an overflow tally that keeps count/mean/max exact while the
   percentiles stay those of the first [cap] samples. *)
let sample_span s v =
  if Histogram.count s.hist < s.cap then Histogram.add s.hist v
  else begin
    s.overflow <- s.overflow + 1;
    s.over_sum <- s.over_sum + v;
    if v > s.over_max then s.over_max <- v
  end

let sample t name v = sample_span (span_cell t name) v

let add_source t f = t.sources <- f :: t.sources

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

let summarize s =
  let n = Histogram.count s.hist in
  let count = n + s.overflow in
  let mean =
    if count = 0 then 0.0
    else
      ((Histogram.mean s.hist *. float_of_int n) +. float_of_int s.over_sum)
      /. float_of_int count
  in
  {
    count;
    mean;
    p50 = Histogram.percentile s.hist 50.0;
    p90 = Histogram.percentile s.hist 90.0;
    p99 = Histogram.percentile s.hist 99.0;
    max = Stdlib.max (Histogram.max_value s.hist) s.over_max;
  }

let span_summary t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> summarize s
  | None -> { count = 0; mean = 0.0; p50 = 0; p90 = 0; p99 = 0; max = 0 }

type snapshot = { counters : (string * int) list; spans : (string * summary) list }

let snapshot (t : t) =
  let acc = Hashtbl.create 32 in
  let add name v =
    match Hashtbl.find_opt acc name with
    | Some r -> r := !r + v
    | None -> Hashtbl.add acc name (ref v)
  in
  Hashtbl.iter (fun name r -> add name !r) t.counters;
  List.iter (fun src -> List.iter (fun (name, v) -> add name v) (src ())) t.sources;
  let counters =
    Hashtbl.fold (fun name r l -> (name, !r) :: l) acc []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let spans =
    Hashtbl.fold (fun name s l -> (name, summarize s) :: l) t.spans []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { counters; spans }

let reset (t : t) =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.spans;
  t.gen <- t.gen + 1

(* Without this, a registry reused across many short-lived instances (one
   per explored schedule) accretes a pull source per dead region, and
   snapshot N+1 still sums counters of executions 1..N. *)
let clear_sources (t : t) = t.sources <- []

let pp_snapshot ppf snap =
  List.iter (fun (name, v) -> Format.fprintf ppf "%-24s %d@." name v) snap.counters;
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "%-24s count=%d mean=%.1f p50=%d p90=%d p99=%d max=%d@."
        name s.count s.mean s.p50 s.p90 s.p99 s.max)
    snap.spans

(* ------------------------------------------------------------------ *)
(* Optional-sink plumbing                                              *)

type sink = t option ref

let sink () = ref None
let attach s t = s := Some t
let detach s = s := None

(* ------------------------------------------------------------------ *)
(* Pre-resolved handles                                                *)

(* A handle caches the resolved counter/span cell of the registry that was
   attached the last time it fired.  The fast path re-validates the cache
   with a physical-equality check on the attached registry plus its reset
   generation — no string hashing, no allocation; resolution only reruns
   after attach/detach/reset, which are cold set-up operations. *)

type handle = {
  hsink : sink;
  hname : string;
  mutable hreg : t option;
  mutable hgen : int;
  mutable hcell : int ref;
}

let unresolved_cell = ref 0

let counter hsink hname =
  { hsink; hname; hreg = None; hgen = -1; hcell = unresolved_cell }

let tick ?(by = 1) h =
  match !(h.hsink) with
  | None -> ()
  | Some t -> (
      match h.hreg with
      | Some r when r == t && h.hgen = t.gen -> h.hcell := !(h.hcell) + by
      | _ ->
          let c = counter_cell t h.hname in
          h.hreg <- Some t;
          h.hgen <- t.gen;
          h.hcell <- c;
          c := !c + by)

type span_handle = {
  ssink : sink;
  sname : string;
  mutable sreg : t option;
  mutable sgen : int;
  mutable scell : span option;
}

let span ssink sname = { ssink; sname; sreg = None; sgen = -1; scell = None }

let observe h v =
  match !(h.ssink) with
  | None -> ()
  | Some t -> (
      match (h.sreg, h.scell) with
      | Some r, Some s when r == t && h.sgen = t.gen -> sample_span s v
      | _ ->
          let s = span_cell t h.sname in
          h.sreg <- Some t;
          h.sgen <- t.gen;
          h.scell <- Some s;
          sample_span s v)
