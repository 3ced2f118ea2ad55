(* Compare two BENCH_*.json files produced by bench/main.exe --json.

     bench_diff baseline.json current.json [--tolerance 0.1] [--all]

   Exit status: 0 = no regression, 1 = regression(s) found, 2 = usage or
   parse error.  A regression is a series value that is worse than the
   baseline by more than the tolerance in the table's declared direction
   (higher-better throughput dropping, lower-better latency/abort counts
   rising), or a table/row that disappeared.  [--all] first prints every
   cell whose value changed, with its signed delta, whatever its size or
   direction: the per-cell record a re-baselined gate file is committed
   with. *)

module J = Workloads.Bench_json

let usage () =
  prerr_endline "usage: bench_diff BASELINE.json CURRENT.json [--tolerance T] [--all]";
  exit 2

let () =
  let tolerance = ref 0.10 and all = ref false in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t >= 0.0 -> tolerance := t
        | _ ->
            prerr_endline ("bench_diff: bad tolerance " ^ v);
            exit 2);
        parse_args rest
    | "--all" :: rest ->
        all := true;
        parse_args rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        prerr_endline ("bench_diff: unknown option " ^ arg);
        usage ()
    | file :: rest ->
        files := file :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ base_path; cur_path ] -> (
      let load path =
        try J.read_run path
        with
        | Sys_error msg ->
            prerr_endline ("bench_diff: " ^ msg);
            exit 2
        | J.Parse_error msg ->
            prerr_endline ("bench_diff: " ^ path ^ ": " ^ msg);
            exit 2
      in
      let baseline = load base_path in
      let current = load cur_path in
      if baseline.J.figure <> current.J.figure then
        Printf.printf "note: comparing different figures (%s vs %s)\n"
          baseline.J.figure current.J.figure;
      if !all then begin
        let cs = J.changes ~baseline ~current in
        Printf.printf "%s vs %s: %d changed cell(s)\n" base_path cur_path
          (List.length cs);
        List.iter (fun c -> Format.printf "  %a@." J.pp_change c) cs
      end;
      match J.diff ~tolerance:!tolerance ~baseline ~current () with
      | [] ->
          Printf.printf "%s vs %s: no regressions (tolerance %.0f%%)\n"
            base_path cur_path
            (100.0 *. !tolerance);
          exit 0
      | regs ->
          Printf.printf "%s vs %s: %d regression(s) (tolerance %.0f%%)\n"
            base_path cur_path (List.length regs)
            (100.0 *. !tolerance);
          List.iter
            (fun r -> Format.printf "  %a@." J.pp_regression r)
            regs;
          exit 1)
  | _ -> usage ()
