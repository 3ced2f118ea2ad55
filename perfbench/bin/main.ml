(* Benchmark entry point: run one workload and print every metric by name
   with its unit, then one JSON result line.  Exits 1 when a correctness
   check fails, 2 on bad arguments. *)

let usage =
  "main.exe --workload (kv-read|kv-update|bank-shard) --seed N --seconds S \
   --trace (0|1) [--scale F] [--trace-dir DIR]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and scale = ref 1.0 and trace_dir = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "length of the wall-clock phase");
      ("--trace", Arg.Set_int trace, "1: traced run, print per-layer metrics");
      ("--scale", Arg.Set_float scale, "multiply the simulated phase length");
      ("--trace-dir", Arg.Set_string trace_dir, "write the kept spans here") ]
  in
  let bad msg =
    prerr_endline ("main.exe: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> bad ("unexpected " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> bad m);
  let wl =
    match List.find_opt (fun s -> s.Perfbench.Bench.name = !workload) Perfbench.Bench.specs with
    | Some s -> s
    | None -> bad ("unknown workload " ^ !workload)
  in
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if !seconds <= 0.0 || !scale <= 0.0 then bad "--seconds and --scale must be positive";
  let trace_dir = if !trace_dir = "" then None else Some !trace_dir in
  let r =
    Perfbench.Bench.run ~scale:!scale ?trace_dir wl ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1)
  in
  List.iter print_endline r.notes;
  List.iter
    (fun (x : Perfbench.Bench.metric) ->
      Printf.printf "metric %s %.6g %s\n" x.m_name x.value x.unit)
    (r.end_to_end @ r.printed @ r.per_layer);
  List.iter (fun e -> Printf.printf "CHECK FAILED %s\n" e) r.errors;
  print_endline (Perfbench.Bench.result_line r ~trace:(!trace = 1));
  if not r.correct then exit 1
