(* The flow-sensitive checks.  One abstract interpretation per
   function computes persistence facts (which bases are dirty/flushed on
   each path) and a callee summary; separate light walks discharge the
   loop-bound, lock-order and snapshot-pin obligations.

   Precision stance: the @lint gate requires zero findings on a clean
   tree, so every rule only reports what it can name.  Dirty marks whose
   base root is opaque (an unresolvable expression, printed as "@...")
   are tracked for summaries but never reported — asserting "this store
   is unflushed" needs a base identity strong enough to survive review. *)

open Eventcfg

module SM = Map.Make (String)

type mark = Dirty of int | Flushed

type pst = { m : mark SM.t; fa : bool }
(* [fa]: a flush-everything ([pwb_range] or a callee that definitely
   range-flushes) has happened on this path. *)

let join_mark a b =
  match (a, b) with
  | Some (Dirty l1), Some (Dirty l2) -> Some (Dirty (min l1 l2))
  | (Some (Dirty _) as d), _ | _, (Some (Dirty _) as d) -> d
  | Some Flushed, Some Flushed -> Some Flushed
  | _ -> None

let join a b =
  { m = SM.merge (fun _ x y -> join_mark x y) a.m b.m; fa = a.fa && b.fa }

let opaque r = String.length r > 0 && r.[0] = '@'

(* ------------------------------------------------------------------ *)
(* Interprocedural summaries                                           *)

type summary = {
  s_params : (string option * string) list;
  dirty_params : string list;
      (* params the function may leave stored-but-unflushed *)
  flush_params : string list;  (* params the function may write back *)
  flushes_all : bool;  (* definitely range-flushes on every path *)
  acquires : shard_expr list;
      (* shard locks taken; [Var p] names one of s_params *)
}

(* Bind call arguments to parameter names: labels by label, the rest by
   position. *)
let match_args params args =
  let labeled =
    List.filter_map
      (fun (l, r, s) -> match l with Some l -> Some (l, (r, s)) | None -> None)
      args
  in
  let pos =
    List.filter_map (fun (l, r, s) -> if l = None then Some (r, s) else None) args
  in
  let rec go params pos acc =
    match params with
    | [] -> acc
    | (Some l, name) :: rest -> (
        match List.assoc_opt l labeled with
        | Some v -> go rest pos ((name, v) :: acc)
        | None -> go rest pos acc)
    | (None, name) :: rest -> (
        match pos with
        | v :: tl -> go rest tl ((name, v) :: acc)
        | [] -> acc)
  in
  go params pos []

(* Does abstract key [k] belong to parameter [p]?  "inst" owns "inst"
   and "inst.curr", not "instance". *)
let key_of_param p k =
  k = p
  || String.length k > String.length p
     && String.sub k 0 (String.length p + 1) = p ^ "."

(* ------------------------------------------------------------------ *)
(* Persistence interpretation (checks 1, 2, publish, preflush)         *)

type penv = {
  path : string;
  summaries : (string, summary) Hashtbl.t;
  preflush : bool;
  sink : Check.Lint.finding -> unit;
  mentions : (string, unit) Hashtbl.t;  (* bases this fn writes back *)
  mention_all : bool ref;
}

let fnd penv line rule message =
  penv.sink { Check.Lint.file = penv.path; line; rule; message }

let drop_dirty m = SM.filter (fun _ v -> v = Flushed) m

let report_dirty penv st line rule describe =
  SM.iter
    (fun base v ->
      match v with
      | Dirty sl when not (opaque base) -> fnd penv line rule (describe base sl)
      | _ -> ())
    st.m

let transfer penv st = function
  | Store { base; line } ->
      if penv.preflush && (not st.fa) && not (SM.mem base st.m) then
        fnd penv line "missing-preflush"
          (Printf.sprintf
             "store to base '%s' in a (* flowlint: preflush *) function with \
              no prior pwb of that base on this path: the durable cell must \
              be written back before the log overwrites it"
             base);
      { st with m = SM.add base (Dirty line) st.m }
  | Flush { base; line } ->
      Hashtbl.replace penv.mentions base ();
      (match SM.find_opt base st.m with
      | Some Flushed ->
          fnd penv line "duplicate-flush"
            (Printf.sprintf
               "pwb of base '%s' which is already written back and unmodified \
                on every path to this point: a wasted write-back on the \
                persistence path"
               base)
      | _ -> ());
      { st with m = SM.add base Flushed st.m }
  | Flush_all _ ->
      penv.mention_all := true;
      { m = drop_dirty st.m; fa = true }
  | Fence { line } ->
      report_dirty penv st line "missing-flush" (fun base sl ->
          Printf.sprintf
            "store to base '%s' at line %d reaches the pfence here without a \
             pwb of that base: the fence orders nothing for it"
            base sl);
      { st with m = drop_dirty st.m }
  | Publish { line } ->
      report_dirty penv st line "publish-before-flush" (fun base sl ->
          Printf.sprintf
            "publishing cas1 executes while base '%s' (stored at line %d) is \
             not yet written back: a crash after the publish can expose \
             unflushed state"
            base sl);
      { st with m = drop_dirty st.m }
  | Call { callee; args; line } -> (
      match Hashtbl.find_opt penv.summaries callee with
      | None -> st
      | Some s ->
          let binding = match_args s.s_params args in
          let st =
            List.fold_left
              (fun st p ->
                match List.assoc_opt p binding with
                | Some (r, _) when not (opaque r) ->
                    { st with m = SM.add r (Dirty line) st.m }
                | _ -> st)
              st s.dirty_params
          in
          let st =
            List.fold_left
              (fun st p ->
                match List.assoc_opt p binding with
                | Some (r, _) ->
                    Hashtbl.replace penv.mentions r ();
                    { st with m = SM.filter (fun k _ -> not (key_of_param r k)) st.m }
                | _ -> st)
              st s.flush_params
          in
          if s.flushes_all then begin
            penv.mention_all := true;
            { m = drop_dirty st.m; fa = true }
          end
          else st)
  | Acquire _ | Mutex_acq _ | Recheck _ | Snap_pin _ | Snap_load _
  | Snap_unpin _ ->
      st

let rec interp penv st = function
  | Nil -> st
  | Ev e -> transfer penv st e
  | Seq (a, b) -> interp penv (interp penv st a) b
  | Branch [] -> st
  | Branch (x :: rest) ->
      List.fold_left (fun acc n -> join acc (interp penv st n)) (interp penv st x) rest
  | Loop { body; _ } ->
      (* loops are analyzed once: exit = entry ⊔ one-body-pass.  No
         cross-iteration facts — a flush mark never survives the
         back-edge, so loop bodies cannot manufacture duplicate-flush
         or preflush evidence. *)
      join st (interp penv st body)

(* ------------------------------------------------------------------ *)
(* Lock order (check 4)                                                *)

type prior = PNone | PConst of int | PAsc | POpaque
type lst = { prior : prior; exempt : bool }

let ljoin a b =
  let prior =
    match (a.prior, b.prior) with
    | x, y when x = y -> x
    | PNone, y -> y
    | x, PNone -> x
    | PConst i, PConst j -> PConst (max i j)
    | _ -> POpaque
  in
  { prior; exempt = a.exempt && b.exempt }

let lock_acquire penv loops st shard lnum =
  let asc =
    match shard with
    | Var v -> List.exists (function For (Some i) -> i = v | _ -> false) loops
    | _ -> false
  in
  if loops <> [] && not asc then begin
    fnd penv lnum "lock-order"
      "shard-lock acquisition inside a loop without provable ordering \
       (ascending for over the shard index is recognized): repeated or \
       re-ordered acquisition can deadlock against a concurrent cross \
       transaction — justify with (* flowlint: lock-order <reason> *)";
    st
  end
  else
    let bad why =
      fnd penv lnum "lock-order"
        (Printf.sprintf
           "shard locks acquired out of provable ascending order (%s): a \
            concurrent cross transaction taking them ascending can deadlock \
            — sort the shard set, or justify with (* flowlint: lock-order \
            <reason> *)"
           why)
    in
    match (shard, asc, st.prior) with
    | _, true, PNone -> { st with prior = PAsc }
    | _, true, _ ->
        bad "an ascending block follows an earlier acquisition";
        st
    | Const k, _, PNone -> { st with prior = PConst k }
    | Const k, _, PConst k' ->
        if k' >= k then
          bad (Printf.sprintf "shard %d acquired after shard %d" k k');
        { st with prior = PConst (max k k') }
    | Const _, _, (PAsc | POpaque) ->
        bad "a constant shard follows acquisitions with no proven bound";
        st
    | (Var _ | Opaque), _, PNone -> { st with prior = POpaque }
    | (Var _ | Opaque), _, _ ->
        bad "a second acquisition whose shard cannot be resolved statically";
        st

let rec lock_walk penv loops st = function
  | Nil -> st
  | Ev (Mutex_acq _) ->
      (* below the router mutex, cross transactions are serialized: lock
         order within the holder cannot deadlock against another cross *)
      { st with exempt = true }
  | Ev (Acquire { shard; line }) ->
      if st.exempt then st else lock_acquire penv loops st shard line
  | Ev (Call { callee; args; line }) -> (
      if st.exempt then st
      else
        match Hashtbl.find_opt penv.summaries callee with
        | Some s when s.acquires <> [] ->
            let binding = match_args s.s_params args in
            List.fold_left
              (fun st sh ->
                let sh =
                  match sh with
                  | Var p -> (
                      match List.assoc_opt p binding with
                      | Some (_, shard) -> shard
                      | None -> Opaque)
                  | sh -> sh
                in
                lock_acquire penv loops st sh line)
              st s.acquires
        | _ -> st)
  | Ev _ -> st
  | Seq (a, b) -> lock_walk penv loops (lock_walk penv loops st a) b
  | Branch [] -> st
  | Branch (x :: rest) ->
      List.fold_left
        (fun acc n -> ljoin acc (lock_walk penv loops st n))
        (lock_walk penv loops st x)
        rest
  | Loop { kind; body; _ } -> ljoin st (lock_walk penv (kind :: loops) st body)

let rec collect_acquires summaries acc = function
  | Nil | Ev (Store _ | Flush _ | Flush_all _ | Fence _ | Publish _
             | Mutex_acq _ | Recheck _ | Snap_pin _ | Snap_load _
             | Snap_unpin _) ->
      acc
  | Ev (Acquire { shard; _ }) -> shard :: acc
  | Ev (Call { callee; args; _ }) -> (
      match Hashtbl.find_opt summaries callee with
      | Some s when s.acquires <> [] ->
          let binding = match_args s.s_params args in
          List.fold_left
            (fun acc sh ->
              match sh with
              | Var p -> (
                  match List.assoc_opt p binding with
                  | Some (_, shard) -> shard :: acc
                  | None -> Opaque :: acc)
              | sh -> sh :: acc)
            acc s.acquires
      | _ -> acc)
  | Seq (a, b) -> collect_acquires summaries (collect_acquires summaries acc a) b
  | Branch l -> List.fold_left (collect_acquires summaries) acc l
  | Loop { body; _ } -> collect_acquires summaries acc body

(* ------------------------------------------------------------------ *)
(* Loop bounds (check 3)                                               *)

let rec has_recheck = function
  | Ev (Recheck _) -> true
  | Nil | Ev _ -> false
  | Seq (a, b) -> has_recheck a || has_recheck b
  | Branch l -> List.exists has_recheck l
  | Loop { body; _ } -> has_recheck body

let rec loop_check penv annots = function
  | Nil | Ev _ -> ()
  | Seq (a, b) ->
      loop_check penv annots a;
      loop_check penv annots b
  | Branch l -> List.iter (loop_check penv annots) l
  | Loop { kind; line; endline; body } ->
      (match kind with
      | While | Rec _ ->
          let bounded =
            List.exists
              (fun (a : Annot.t) ->
                a.kind = Annot.Bounded && Annot.covers a ~first:line ~last:endline)
              annots
          in
          if not (bounded || has_recheck body) then
            fnd penv line "unbounded-loop"
              (match kind with
              | Rec n ->
                  Printf.sprintf
                    "self-recursive '%s' in wait-free scope with neither a \
                     (* flowlint: bounded <reason> *) justification nor a \
                     'closed' early-exit re-check: helping retries must be \
                     bounded for the wait-freedom argument"
                    n
              | _ ->
                  "while loop in wait-free scope with neither a (* flowlint: \
                   bounded <reason> *) justification nor a 'closed' \
                   early-exit re-check: unbounded spinning breaks the \
                   wait-freedom argument")
      | For _ | Iter -> ());
      loop_check penv annots body

(* ------------------------------------------------------------------ *)
(* Snapshot pin domination (check 5)                                   *)

(* Boolean must-analysis: [true] iff a snap_pin dominates this point on
   every path with no intervening snap_unpin.  A snapshot load outside
   that region walks a version chain with no published read epoch, so
   writers can cut away the versions under it.
   Loads whose pin is held by a caller (the router's cross-shard driver,
   the instance-level resolver) carry an [ok] annotation at the site. *)
let rec snap_walk penv pinned = function
  | Nil -> pinned
  | Ev (Snap_pin _) -> true
  | Ev (Snap_unpin _) -> false
  | Ev (Snap_load { line }) ->
      if not pinned then
        fnd penv line "unpinned-snapshot-load"
          "snapshot load with no epoch pin dominating it on every path: \
           without a published read era the version walk races \
           reclamation and can observe freed or mid-apply state — \
           snap_pin first, or justify a caller-held pin with (* \
           flowlint: ok unpinned-snapshot-load <reason> *)";
      pinned
  | Ev _ -> pinned
  | Seq (a, b) -> snap_walk penv (snap_walk penv pinned a) b
  | Branch [] -> pinned
  | Branch (x :: rest) ->
      List.fold_left
        (fun acc n ->
          let p = snap_walk penv pinned n in
          acc && p)
        (snap_walk penv pinned x)
        rest
  | Loop { body; _ } ->
      (* the body may run zero times, so pinned-ness must hold both
         around and through it *)
      let p = snap_walk penv pinned body in
      pinned && p

(* ------------------------------------------------------------------ *)
(* Migration record order (check 6)                                    *)

(* The live-migration protocol's three named stages (tm_shard):
   [publish_migration_record] makes the move durable, [migrate_chunk]
   copies one bounded slice into the write-ahead host block, and
   [flip_map_epoch] settles the new route.  Two orderings are load-
   bearing for crash safety: every chunk copy must be dominated by the
   record publish (a crash mid-copy with no record leaves host cells
   recovery can neither roll forward nor tie to the held block), and no
   copy may be reachable after the flip (the flipped map already routes
   traffic to the host copy, so a late chunk would overwrite post-flip
   writes with stale source data).  [published] is a must-fact (joins
   with &&), [flipped] a may-fact (joins with ||). *)

type mst = { published : bool; flipped : bool }

let mjoin a b =
  { published = a.published && b.published; flipped = a.flipped || b.flipped }

let mig_stage callee =
  match List.rev (String.split_on_char '.' callee) with
  | "publish_migration_record" :: _ -> Some `Publish
  | "migrate_chunk" :: _ -> Some `Copy
  | "flip_map_epoch" :: _ -> Some `Flip
  | _ -> None

let rec mig_walk penv st = function
  | Nil -> st
  | Ev (Call { callee; line; _ }) -> (
      match mig_stage callee with
      | Some `Publish ->
          (* a fresh durable record opens a new migration *)
          { published = true; flipped = false }
      | Some `Flip -> { st with flipped = true }
      | Some `Copy ->
          if not st.published then
            fnd penv line "migration-record-order"
              "migrate_chunk not dominated by publish_migration_record on \
               every path: a crash during the copy leaves host cells with no \
               durable migration record, so recovery can neither roll the \
               move forward nor recognize the write-ahead block";
          if st.flipped then
            fnd penv line "migration-record-order"
              "migrate_chunk reachable after flip_map_epoch: the flipped map \
               already routes the range to the host copy, so a late chunk \
               overwrites post-flip writes with stale source data";
          st
      | None -> st)
  | Ev _ -> st
  | Seq (a, b) -> mig_walk penv (mig_walk penv st a) b
  | Branch [] -> st
  | Branch (x :: rest) ->
      List.fold_left
        (fun acc n -> mjoin acc (mig_walk penv st n))
        (mig_walk penv st x)
        rest
  | Loop { body; _ } ->
      (* the body may run zero or many times: a second pass from the
         first pass's exit state surfaces orderings violated only across
         the back edge (a flip followed by the next iteration's copy);
         the (rule, line) dedupe collapses repeated findings *)
      let st1 = mig_walk penv st body in
      ignore (mig_walk penv st1 body);
      mjoin st st1

(* ------------------------------------------------------------------ *)
(* Configuration and driver                                            *)

type config = {
  persist : string -> bool;
  loops : string -> bool;
  locks : string -> bool;
  snaps : string -> bool;
  migs : string -> bool;
}

let under dir path =
  let d = dir ^ "/" in
  String.length path >= String.length d && String.sub path 0 (String.length d) = d

let repo_config =
  {
    persist = (fun _ -> true);
    loops =
      (fun p ->
        under "lib/onefile" p || under "lib/reclaim" p || p = "lib/tm/tm_shard.ml");
    locks = (fun p -> p = "lib/tm/tm_shard.ml");
    snaps = (fun p -> under "lib/onefile" p || p = "lib/tm/tm_shard.ml");
    migs = (fun p -> p = "lib/tm/tm_shard.ml");
  }

let corpus_config =
  {
    persist = (fun _ -> true);
    loops = (fun _ -> true);
    locks = (fun _ -> true);
    snaps = (fun _ -> true);
    migs = (fun _ -> true);
  }

let empty_pst = { m = SM.empty; fa = false }

let run config ~path (file : Eventcfg.file) annots =
  let acc = ref [] in
  let summaries = Hashtbl.create 32 in
  let do_persist = config.persist path in
  let do_loops = config.loops path in
  let do_locks = config.locks path in
  let do_snaps = config.snaps path in
  let do_migs = config.migs path in
  List.iter
    (fun (fn : func) ->
      let local = ref [] in
      let penv =
        {
          path;
          summaries;
          preflush =
            List.exists
              (fun (a : Annot.t) ->
                a.kind = Annot.Preflush
                && Annot.covers a ~first:fn.start_line ~last:fn.end_line)
              annots;
          sink = (fun f -> local := f :: !local);
          mentions = Hashtbl.create 8;
          mention_all = ref false;
        }
      in
      (* the interpretation always runs — summaries feed later callers —
         but findings only count in persistence scope *)
      let st = interp penv empty_pst fn.body in
      if do_persist then acc := !local @ !acc;
      let mentioned p =
        !(penv.mention_all)
        || Hashtbl.fold (fun k () b -> b || key_of_param p k) penv.mentions false
      in
      let param_names = List.map snd fn.params in
      let dirty_params =
        List.filter
          (fun p ->
            (not (mentioned p))
            && SM.exists (fun k v -> key_of_param p k && v <> Flushed) st.m)
          param_names
      in
      let flush_params =
        List.filter
          (fun p -> Hashtbl.fold (fun k () b -> b || key_of_param p k) penv.mentions false)
          param_names
      in
      Hashtbl.replace summaries fn.fname
        {
          s_params = fn.params;
          dirty_params;
          flush_params;
          flushes_all = st.fa;
          acquires = List.rev (collect_acquires summaries [] fn.body);
        };
      let lpenv = { penv with sink = (fun f -> acc := f :: !acc) } in
      if do_loops then loop_check lpenv annots fn.body;
      if do_snaps then ignore (snap_walk lpenv false fn.body);
      if do_migs then
        ignore (mig_walk lpenv { published = false; flipped = false } fn.body);
      if do_locks then begin
        let lock_annot =
          List.exists
            (fun (a : Annot.t) ->
              a.kind = Annot.Lock_order
              && Annot.covers a ~first:fn.start_line ~last:fn.end_line)
            annots
        in
        if not lock_annot then
          ignore (lock_walk lpenv [] { prior = PNone; exempt = false } fn.body)
      end)
    file.funcs;
  (* apply (* flowlint: ok <rule> *) suppressions, dedupe branch copies *)
  let suppressed (f : Check.Lint.finding) =
    List.exists
      (fun (a : Annot.t) ->
        match a.kind with
        | Annot.Ok r -> r = f.rule && f.line >= a.aline && f.line <= a.aline + 2
        | _ -> false)
      annots
  in
  let seen = Hashtbl.create 32 in
  !acc
  |> List.filter (fun (f : Check.Lint.finding) ->
         if suppressed f then false
         else if Hashtbl.mem seen (f.rule, f.line) then false
         else begin
           Hashtbl.replace seen (f.rule, f.line) ();
           true
         end)
  |> List.sort (fun (a : Check.Lint.finding) b ->
         compare (a.line, a.rule) (b.line, b.rule))
