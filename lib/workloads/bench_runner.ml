open Runtime

type spec = {
  threads : int;
  cores : int;
  rounds : int;
  seed : int;
  policy : Sched.policy;
}

let default ?(threads = 1) ?(cores = 8) ?(rounds = 30_000) ?(seed = 42) () =
  { threads; cores; rounds; seed; policy = Sched.Round_robin }

let run_workers spec ~hist worker =
  (* every cell starts from the same backoff seeds, so a cell's numbers
     do not depend on the schedules of the cells run before it *)
  Backoff.reset_instances ();
  let ops = Array.make spec.threads 0 in
  let body i () =
    let rng = Rng.create ((spec.seed * 1000) + i) in
    while Sched.now () < spec.rounds do
      let t0 = Sched.now () in
      worker ~tid:i ~rng;
      ops.(i) <- ops.(i) + 1;
      match hist with
      | Some h -> Histogram.add h (Sched.now () - t0 + 1)
      | None -> ()
    done
  in
  ignore
    (Sched.run ~cores:spec.cores ~seed:spec.seed ~policy:spec.policy
       ~max_rounds:spec.rounds
       (Array.init spec.threads body));
  Array.fold_left ( + ) 0 ops

let run_ops spec worker = run_workers spec ~hist:None worker

let throughput spec worker =
  let ops = run_ops spec worker in
  1000.0 *. float_of_int ops /. float_of_int spec.rounds

let latency spec worker =
  let h = Histogram.create () in
  ignore (run_workers spec ~hist:(Some h) worker);
  h
