(* The kv-read and kv-update workloads: a pre-sized Structures.Hash_set
   over one persistent OneFile instance. *)

open Runtime
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf

let keys = 8192

type engine = Lf_ptm | Wf_ptm

type config = {
  engine : engine;
  write_permille : int;  (** share of add/remove; the rest is contains *)
  zipf : bool;  (** zipfian (theta 0.99) keys, else uniform *)
  threads : int;  (** the most tids any phase uses *)
}

(* Zipf(0.99) over [keys] ranks; a seeded permutation maps ranks to keys
   so each seed has its own hot set. *)
let zipf_cdf =
  let w = Array.init keys (fun i -> 1.0 /. (float_of_int (i + 1) ** 0.99)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_rank rng =
  let cdf = zipf_cdf in
  let u = Rng.float rng in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid
  in
  min (keys - 1) (go 0 (keys - 1))

let permutation rng n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

module type TM = Tm.Tm_intf.S with type t = Lf.t

module Make (T : TM) (W : sig
  val around : (unit -> bool) -> bool
end) =
struct
  module S = Structures.Hash_set.Make (T)

  let setup cfg ~seed =
    let create, recover, attach =
      match cfg.engine with
      | Lf_ptm -> (Lf.create, Lf.recover, Lf.attach_telemetry)
      | Wf_ptm -> (Wf.create, Wf.recover, Wf.attach_telemetry)
    in
    let tm =
      create ~mode:Pmem.Region.Persistent ~size:(1 lsl 17)
        ~max_threads:(cfg.threads + 2) ~ws_cap:1024 ~num_roots:2 ()
    in
    let h = S.create ~initial_buckets:keys tm ~root:0 in
    let rng = Rng.create (seed + 1) in
    (* half the key space present, chosen by the seed *)
    let present = Array.make keys false in
    Array.iteri
      (fun i k -> if i < keys / 2 then present.(k) <- true)
      (permutation rng keys);
    Array.iteri (fun k p -> if p then ignore (S.add h k)) present;
    let hot = permutation rng keys in
    let key r = if cfg.zipf then hot.(zipf_rank r) else Rng.int r keys in
    let net = Array.init cfg.threads (fun _ -> Array.make keys 0) in
    (* one cache line per client: clients on different domains must not
       share the line they write on every operation *)
    let inflight = Array.make (cfg.threads * Phase.pad) (-1) in
    let op ~tid ~rng =
      let w = Rng.int rng 1000 < cfg.write_permille in
      let add = Rng.bool rng in
      let k = key rng in
      match
        if w then begin
          inflight.(tid * Phase.pad) <- k;
          let ok = W.around (fun () -> if add then S.add h k else S.remove h k) in
          if ok then net.(tid).(k) <- (net.(tid).(k) + if add then 1 else -1);
          inflight.(tid * Phase.pad) <- -1
        end
        else ignore (W.around (fun () -> S.contains h k))
      with
      | () -> Phase.Done
      | exception _ -> Phase.Failed
    in
    let check ~stage errs =
      for k = 0 to keys - 1 do
        if not (Array.exists (fun f -> f = k) inflight) then begin
          let expect =
            Array.fold_left (fun a n -> a + n.(k)) (Bool.to_int present.(k)) net
          in
          let got = Bool.to_int (S.contains h k) in
          if got <> expect && List.length !errs < 5 then
            errs :=
              Printf.sprintf "%s: key %d member=%d, acknowledged ops imply %d"
                stage k got expect
              :: !errs
        end
      done
    in
    let verify ~crash =
      let errs = ref [] in
      (try
         if crash then begin
           Pmem.Region.crash (T.region tm) ~evict_fraction:0.5
             ~rng:(Rng.create (seed + 2)) ();
           recover tm
         end;
         check ~stage:(if crash then "after crash+recover" else "final") errs
       with e -> errs := ("raised " ^ Printexc.to_string e) :: !errs);
      List.rev !errs
    in
    {
      Phase.op;
      device = T.region tm;
      attach = attach tm;
      verify;
      extra = (fun () -> []);
    }
end

module Plain (T : TM) =
  Make (T) (struct
    let around f = f ()
  end)

module Spanned (T : TM) = struct
  module Traced_tm =
    Traced.Make
      (struct
        let level = Trace.tm_level
      end)
      (T)

  include
    Make
      (Traced_tm)
      (struct
        let around f = Trace.span Trace.Hs_op f
      end)
end

module Lf_plain = Plain (Lf)
module Wf_plain = Plain (Wf)
module Lf_traced = Spanned (Lf)
module Wf_traced = Spanned (Wf)

let setup cfg ~seed ~traced ~wall:_ =
  match (cfg.engine, traced) with
  | Lf_ptm, false -> Lf_plain.setup cfg ~seed
  | Wf_ptm, false -> Wf_plain.setup cfg ~seed
  | Lf_ptm, true -> Lf_traced.setup cfg ~seed
  | Wf_ptm, true -> Wf_traced.setup cfg ~seed
