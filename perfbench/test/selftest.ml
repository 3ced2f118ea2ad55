(* Self-test of the benchmark, run at short lengths:
   - the same seed gives bit-identical simulated metrics;
   - a different seed changes the op stream;
   - every metric of BENCHMARK.json is printed by name with its unit, and
     the result line carries exactly the end-to-end (--trace 0) or the
     per-layer (--trace 1) metrics. *)

let exe = Sys.argv.(1)
let benchmark_json = Sys.argv.(2)
let failures = ref 0

let check what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let read_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

(* Run the benchmark; returns its exit code and stdout lines. *)
let bench args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = read_lines ic in
  let code =
    match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> -1
  in
  (code, lines)

let short ~workload ~seed ~trace ~scale =
  bench
    [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "0.3";
      "--trace"; string_of_int trace; "--scale"; scale ]

let last l = List.nth l (List.length l - 1)

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* "metric <name> <value> <unit>" lines *)
let metric_lines lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "metric"; name; _; unit ] -> Some (name, unit)
      | _ -> None)
    lines

(* The simulated end-to-end metrics as printed in the result line, text
   compared: bit-identical means the same digits. *)
let sim_fields line =
  List.filter_map
    (fun name ->
      let key = Printf.sprintf "\"%s\": {\"value\": " name in
      let rec find i =
        if i + String.length key > String.length line then None
        else if String.sub line i (String.length key) = key then
          let j = String.index_from line (i + String.length key) ',' in
          Some (String.sub line i (j - i))
        else find (i + 1)
      in
      find 0)
    [ "sim_ops_per_kround"; "sim_lat_p50_rounds"; "sim_lat_p99_rounds"; "pwb_per_op" ]

(* (name, unit) of every metric in one section of BENCHMARK.json, which
   is written one metric object per line. *)
let section_metrics section =
  let ic = open_in benchmark_json in
  let lines = read_lines ic in
  close_in ic;
  let field key l =
    let k = Printf.sprintf "\"%s\": \"" key in
    let rec find i =
      if i + String.length k > String.length l then None
      else if String.sub l i (String.length k) = k then
        let s = i + String.length k in
        Some (String.sub l s (String.index_from l s '"' - s))
      else find (i + 1)
    in
    find 0
  in
  let inside = ref false in
  List.filter_map
    (fun l ->
      let t = String.trim l in
      if starts_with (Printf.sprintf "\"%s\"" section) t then inside := true
      else if !inside && (starts_with "]" t) then inside := false;
      if !inside then
        match (field "name" l, field "unit" l) with
        | Some n, Some u -> Some (n, u)
        | _ -> None
      else None)
    lines

let () =
  (* same seed: bit-identical simulated metrics *)
  let c1, a = short ~workload:"kv-read" ~seed:5 ~trace:0 ~scale:"0.02" in
  let c2, b = short ~workload:"kv-read" ~seed:5 ~trace:0 ~scale:"0.02" in
  check "kv-read runs pass their checks" (c1 = 0 && c2 = 0);
  let fa = sim_fields (last a) and fb = sim_fields (last b) in
  check "same seed gives bit-identical simulated metrics"
    (List.length fa = 4 && fa = fb);
  (* different seed: different op stream *)
  let stream seed tid =
    let r = Perfbench.Phase.rng_for ~seed ~tid in
    List.init 64 (fun _ -> Runtime.Rng.int r 1_000_000)
  in
  check "a different seed changes every client's op stream"
    (List.for_all (fun tid -> stream 5 tid <> stream 6 tid) [ 0; 1; 7; 15 ]);
  let c3, c = short ~workload:"kv-read" ~seed:6 ~trace:0 ~scale:"0.02" in
  check "a different seed changes the simulated metrics"
    (c3 = 0 && sim_fields (last c) <> fa);
  (* every metric printed with its unit *)
  let e2e = section_metrics "end_to_end" and layer = section_metrics "per_layer" in
  check "BENCHMARK.json lists metrics" (e2e <> [] && layer <> []);
  let printed = metric_lines a in
  check "kv-read prints every end-to-end metric with its unit"
    (List.for_all (fun m -> List.mem m printed)
       (e2e @ [ ("pfence_per_op", "count"); ("fail_ratio", "ratio") ]));
  let in_result line (n, u) =
    let needle = Printf.sprintf "\"%s\": {" n and unit = Printf.sprintf "\"unit\": \"%s\"" u in
    let rec has s i =
      i + String.length s <= String.length line
      && (String.sub line i (String.length s) = s || has s (i + 1))
    in
    has needle 0 && has unit 0
  in
  check "the --trace 0 result line carries every end-to-end metric"
    (List.for_all (in_result (last a)) e2e);
  List.iter
    (fun (workload, scale) ->
      let code, t = short ~workload ~seed:2 ~trace:1 ~scale in
      check (workload ^ " traced run passes its checks") (code = 0);
      let printed = metric_lines t in
      check (workload ^ " traced run prints every metric with its unit")
        (List.for_all (fun m -> List.mem m printed) (e2e @ layer));
      check (workload ^ " traced result line carries every per-layer metric")
        (List.for_all (in_result (last t)) layer))
    [ ("kv-update", "0.05"); ("bank-shard", "0.1") ];
  if !failures > 0 then exit 1
