(* Parsetree -> effect CFG lowering.  See eventcfg.mli for the model.

   Design invariants worth keeping in mind while editing:
   - [Region.pwb_range] is Flush_all, never a per-base flush: range
     flushes routinely cover bases whose roots differ from the range
     argument (e.g. a copy loop storing through [cell inst dst a] and
     flushing [dst * half]), and a per-base model would false-positive.
   - [Region.cas1] is a Publish only, not a Store: the slot it writes is
     the volatile side of the request protocol, and modeling it as dirty
     data would leak "unflushed" state into every commit path.
   - fault-injection branches ([if ... faults ... then]) are pruned to
     the fault-free arm, so injected omissions do not weaken the static
     obligation the fault exists to test. *)

open Parsetree

type shard_expr = Const of int | Var of string | Opaque

type event =
  | Store of { base : string; line : int }
  | Flush of { base : string; line : int }
  | Flush_all of { line : int }
  | Fence of { line : int }
  | Publish of { line : int }
  | Acquire of { shard : shard_expr; line : int }
  | Mutex_acq of { line : int }
  | Recheck of { line : int }
  | Snap_pin of { line : int }
  | Snap_load of { line : int }
  | Snap_unpin of { line : int }
  | Call of {
      callee : string;
      args : (string option * string * shard_expr) list;
      line : int;
    }

type loop_kind = While | For of string option | Rec of string | Iter

type node =
  | Nil
  | Ev of event
  | Seq of node * node
  | Branch of node list
  | Loop of { kind : loop_kind; line : int; endline : int; body : node }

type func = {
  fname : string;
  params : (string option * string) list;
  body : node;
  start_line : int;
  end_line : int;
}

type file = { funcs : func list }

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let line e = e.pexp_loc.Location.loc_start.Lexing.pos_lnum
let endline e = e.pexp_loc.Location.loc_end.Lexing.pos_lnum

let compact s =
  String.split_on_char ' '
    (String.map (fun c -> if c = '\n' || c = '\t' then ' ' else c) s)
  |> List.filter (fun x -> x <> "")
  |> String.concat " "

let pp_expr e = compact (Pprintast.string_of_expression e)
let last = function [] -> "" | l -> List.nth l (List.length l - 1)

let flatten_lid lid = try Longident.flatten lid with _ -> []

(* Head path of an application: ["Region"; "pwb"] for [Region.pwb r x]. *)
let head_path f =
  match f.pexp_desc with
  | Pexp_ident { txt; _ } -> flatten_lid txt
  | _ -> []

let positional args =
  List.filter_map
    (fun (l, a) -> match l with Asttypes.Nolabel -> Some a | _ -> None)
    args

let label_name = function
  | Asttypes.Nolabel -> None
  | Asttypes.Labelled s | Asttypes.Optional s -> Some s

let arith_ops =
  [ "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr" ]

(* Does [name] occur applied (head of a Pexp_apply) anywhere in [e]?
   Used to detect genuine self-recursion: [let rec tx = { record with
   closures mentioning tx }] is not a loop, [let rec go s = ... go (s+1)]
   is. *)
let calls_name name e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self c ->
          (match c.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }, _)
            when x = name ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self c);
    }
  in
  it.expr it e;
  !found

let occurs_ident name e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self c ->
          (match c.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } when x = name -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self c);
    }
  in
  it.expr it e;
  !found

(* Immediate sub-expressions of [e] (one level, through non-expression
   structure such as record fields and constructor arguments).  Fallback
   traversal for constructs the lowering has no special case for. *)
let children e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ c -> acc := c :: !acc);
    }
  in
  Ast_iterator.default_iterator.expr it e;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Base roots and address projectors                                   *)

(* An address projector is a local function whose body is pure address
   arithmetic over its parameters: [let cell inst side addr = (side *
   inst.half) + addr].  Calls to it are resolved to the root of its
   carrier argument (the first parameter occurring in the body), so
   [pwb r (cell inst side a)] and [store r (cell inst side b) v] both
   talk about base [inst]. *)
let rec pure_arith projs e =
  match e.pexp_desc with
  | Pexp_ident _ | Pexp_constant _ -> true
  | Pexp_field (b, _) -> pure_arith projs b
  | Pexp_constraint (b, _) -> pure_arith projs b
  | Pexp_apply (f, args) ->
      let p = head_path f in
      let name = last p in
      (List.mem name arith_ops || p = [ "Array"; "get" ] || Hashtbl.mem projs name)
      && List.for_all (fun (_, a) -> pure_arith projs a) args
  | _ -> false

let rec root env projs e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match List.assoc_opt x env with Some r -> r | None -> x)
  | Pexp_ident { txt; _ } -> String.concat "." (flatten_lid txt)
  | Pexp_field (b, { txt; _ }) -> root env projs b ^ "." ^ last (flatten_lid txt)
  | Pexp_constant (Pconst_integer (s, _)) -> "#" ^ s
  | Pexp_constant _ -> "#k"
  | Pexp_constraint (b, _) -> root env projs b
  | Pexp_apply (f, args) -> (
      let p = head_path f in
      let name = last p in
      let pos = positional args in
      if List.mem name arith_ops then
        (* address arithmetic: the base is the first non-constant term *)
        let rec pick = function
          | [] -> "#k"
          | a :: rest ->
              let r = root env projs a in
              if String.length r > 0 && r.[0] = '#' then pick rest else r
        in
        pick pos
      else if p = [ "Array"; "get" ] then
        match pos with a :: _ -> root env projs a | [] -> "#k"
      else
        match Hashtbl.find_opt projs name with
        | Some carrier when List.length pos > carrier ->
            root env projs (List.nth pos carrier)
        | _ -> "@" ^ pp_expr e)
  | _ -> "@" ^ pp_expr e

let shard_of_expr e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_integer (s, _)) -> (
        match int_of_string_opt s with Some n -> Const n | None -> Opaque)
    | Pexp_ident { txt = Longident.Lident x; _ } -> Var x
    | Pexp_constraint (b, _) -> go b
    | _ -> Opaque
  in
  go e

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)

type ctx = {
  projs : (string, int) Hashtbl.t;  (* projector name -> carrier index *)
  out : func list ref;  (* completed functions, reversed *)
}

let is_function e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

(* Combinators whose closure argument runs once per element: the closure
   body is a loop.  Anything else ([update_tx], [Fun.protect], ...) runs
   its closure a bounded number of times and is lowered as a may-run
   branch instead — crucial for the lock check, where "acquire inside an
   [update_tx] body" must not read as "acquire inside a loop". *)
let iter_names =
  [
    "iter"; "iteri"; "fold_left"; "fold_right"; "map"; "mapi"; "for_all";
    "exists"; "filter"; "filter_map"; "concat_map";
  ]

let fault_guard cond =
  let txt = pp_expr cond in
  let has_faults =
    let key = ".faults" in
    let n = String.length txt and k = String.length key in
    let rec go i =
      i + k <= n && (String.sub txt i k = key || go (i + 1))
    in
    go 0
  in
  if not has_faults then None
  else
    match cond.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "not"; _ }; _ }, _) ->
        Some true (* [if not _.faults._ then healthy] : keep the then-arm *)
    | _ -> Some false (* [if _.faults._ then injected else healthy] : else-arm *)

let param_of_pat pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
  | _ -> "_"

let rec seq_of = function
  | [] -> Nil
  | [ n ] -> n
  | n :: rest -> Seq (n, seq_of rest)

let rec lower ctx env e : node =
  match e.pexp_desc with
  | Pexp_let (rf, vbs, body) ->
      let env', nodes = lower_bindings ctx env rf vbs in
      Seq (seq_of nodes, lower ctx env' body)
  | Pexp_sequence (a, b) -> Seq (lower ctx env a, lower ctx env b)
  | Pexp_ifthenelse (c, t, eo) -> (
      match fault_guard c with
      | Some true -> lower ctx env t
      | Some false -> ( match eo with Some el -> lower ctx env el | None -> Nil)
      | None ->
          let arms =
            [ lower ctx env t; (match eo with Some el -> lower ctx env el | None -> Nil) ]
          in
          Seq (lower ctx env c, Branch arms))
  | Pexp_match (scr, cases) ->
      Seq (lower ctx env scr, Branch (List.map (lower_case ctx env) cases))
  | Pexp_try (b, cases) ->
      Branch (lower ctx env b :: List.map (lower_case ctx env) cases)
  | Pexp_while (c, b) ->
      Seq
        ( lower ctx env c,
          Loop { kind = While; line = line e; endline = endline e; body = lower ctx env b }
        )
  | Pexp_for (pat, lo, hi, dir, b) ->
      let idx =
        match (pat.ppat_desc, dir) with
        | Ppat_var { txt; _ }, Asttypes.Upto -> Some txt
        | _ -> None
      in
      Seq
        ( Seq (lower ctx env lo, lower ctx env hi),
          Loop { kind = For idx; line = line e; endline = endline e; body = lower ctx env b }
        )
  | Pexp_apply (f, args) -> lower_apply ctx env e f args
  | Pexp_fun _ | Pexp_function _ ->
      (* anonymous closure in expression position (record field,
         constructor argument...): analyzed standalone *)
      def_function ctx env (Printf.sprintf "<fun:%d>" (line e)) Asttypes.Nonrecursive e;
      Nil
  | Pexp_constraint (b, _) -> lower ctx env b
  | _ -> seq_of (List.map (lower ctx env) (children e))

and lower_case ctx env c =
  let g = match c.pc_guard with Some g -> lower ctx env g | None -> Nil in
  Seq (g, lower ctx env c.pc_rhs)

and lower_bindings ctx env rf vbs =
  let env = ref env and nodes = ref [] in
  List.iter
    (fun vb ->
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt = name; _ } when is_function vb.pvb_expr ->
          def_function ctx !env name rf vb.pvb_expr;
          env := List.remove_assoc name !env
      | Ppat_var { txt = name; _ } ->
          let n = lower ctx !env vb.pvb_expr in
          let r = root !env ctx.projs vb.pvb_expr in
          nodes := n :: !nodes;
          env := (name, r) :: List.remove_assoc name !env
      | _ -> nodes := lower ctx !env vb.pvb_expr :: !nodes)
    vbs;
  (!env, List.rev !nodes)

(* Peel [fun p1 -> fun p2 -> ...] down to the body, registering parameter
   names (they shadow outer aliases and resolve to themselves). *)
and peel ctx env e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, b) ->
      let name = param_of_pat pat in
      let params, body_env, body = peel ctx (List.remove_assoc name env) b in
      ((label_name lbl, name) :: params, body_env, body)
  | _ -> ([], env, e)

and lower_lambda ctx env lam =
  match lam.pexp_desc with
  | Pexp_function cases -> Branch (List.map (lower_case ctx env) cases)
  | _ ->
      let _, env', body = peel ctx env lam in
      lower ctx env' body

and def_function ctx env name rf expr =
  let params, env', body =
    match expr.pexp_desc with
    | Pexp_function _ -> ([ (None, "_") ], env, expr)
    | _ -> peel ctx env expr
  in
  let body_node =
    match body.pexp_desc with
    | Pexp_function cases -> Branch (List.map (lower_case ctx env') cases)
    | _ -> lower ctx env' body
  in
  let start_line = line expr and end_line = endline expr in
  let body_node =
    if rf = Asttypes.Recursive && calls_name name body then
      Loop { kind = Rec name; line = start_line; endline = end_line; body = body_node }
    else body_node
  in
  (* register as an address projector when the body is pure arithmetic *)
  (match (params, body.pexp_desc) with
  | _ :: _, _ when List.for_all (fun (l, _) -> l = None) params && pure_arith ctx.projs body
    -> (
      let carrier =
        let rec find i = function
          | [] -> None
          | (_, p) :: rest -> if occurs_ident p body then Some i else find (i + 1) rest
        in
        find 0 params
      in
      match carrier with
      | Some i -> Hashtbl.replace ctx.projs name i
      | None -> ())
  | _ -> ());
  ctx.out := { fname = name; params; body = body_node; start_line; end_line } :: !(ctx.out)

and lower_apply ctx env e f args =
  let p = head_path f in
  let name = last p in
  let qual = if List.length p >= 2 then Some (List.nth p (List.length p - 2)) else None in
  let ln = line e in
  let pos = positional args in
  (* lower argument expressions first; closure arguments are inlined,
     as loops under iteration combinators and may-run branches elsewhere *)
  let arg_nodes =
    List.map
      (fun (_, a) ->
        if is_function a then
          let b = lower_lambda ctx env a in
          if List.mem name iter_names then
            Loop { kind = Iter; line = line a; endline = endline a; body = b }
          else Branch [ Nil; b ]
        else lower ctx env a)
      args
  in
  let head_node = match p with [] -> lower ctx env f | _ -> Nil in
  let ev =
    (* direct store of 0/1 through a lock-cell projector: shard lock
       acquire/release (checked before Region classification so a
       [Region.store r (lock_cell t s) 1] also counts) *)
    let lock_store () =
      match pos with
      | [ _; addr; v ] when name = "store" || name = "cas" -> (
          match addr.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident h; _ }; _ }, la)
            when String.length h >= 9
                 && String.sub h (String.length h - 9) 9 = "lock_cell" -> (
              match v.pexp_desc with
              | Pexp_constant (Pconst_integer ("1", _)) ->
                  let shard =
                    match List.rev (positional la) with
                    | s :: _ -> shard_of_expr s
                    | [] -> Opaque
                  in
                  Some (Ev (Acquire { shard; line = ln }))
              | Pexp_constant (Pconst_integer ("0", _)) -> Some Nil (* release *)
              | _ -> None)
          | _ -> None)
      | _ -> None
    in
    match lock_store () with
    | Some n -> n
    | None -> (
        match (qual, name) with
        | Some "Region", ("store" | "cas") -> (
            match pos with
            | _ :: addr :: _ -> Ev (Store { base = root env ctx.projs addr; line = ln })
            | _ -> Nil)
        | Some "Region", "cas1" -> Ev (Publish { line = ln })
        | Some "Region", "pwb" -> (
            match pos with
            | _ :: addr :: _ -> Ev (Flush { base = root env ctx.projs addr; line = ln })
            | _ -> Nil)
        | Some "Region", "pwb_range" -> Ev (Flush_all { line = ln })
        | Some "Region", "pfence" -> Ev (Fence { line = ln })
        | _, "ensure_locked" -> (
            match List.rev pos with
            | s :: _ -> Ev (Acquire { shard = shard_of_expr s; line = ln })
            | [] -> Ev (Acquire { shard = Opaque; line = ln }))
        | _, "compare_and_set" -> (
            match pos with
            | c :: _ ->
                let r = root env ctx.projs c in
                let is_mutex =
                  r = "mutex"
                  || (String.length r >= 6
                     && String.sub r (String.length r - 6) 6 = ".mutex")
                in
                if is_mutex then Ev (Mutex_acq { line = ln }) else Nil
            | [] -> Nil)
        | _, "closed" -> Ev (Recheck { line = ln })
        (* the wait-free snapshot-read protocol (DESIGN.md §13): the pin
           publishes a read epoch, resolves walk the version chains
           against it, the unpin retires it.  Matched unqualified so the
           per-instance functions (core0) and the router's per-shard
           wrappers (tm_shard) both classify. *)
        | _, "snap_pin" -> Ev (Snap_pin { line = ln })
        | _, ("snap_load" | "snap_resolve") -> Ev (Snap_load { line = ln })
        | _, "snap_unpin" -> Ev (Snap_unpin { line = ln })
        | _, "" -> Nil
        | _ ->
            (* qualified names are kept whole so a same-file function
               that happens to share a name with a module member (e.g. a
               local [store] vs [T.store]) cannot capture its calls *)
            let cargs =
              List.map
                (fun (l, a) ->
                  (label_name l, root env ctx.projs a, shard_of_expr a))
                args
            in
            Ev (Call { callee = String.concat "." p; args = cargs; line = ln }))
  in
  Seq (head_node, Seq (seq_of arg_nodes, ev))

(* ------------------------------------------------------------------ *)
(* Structures                                                          *)

let rec has_content = function
  | Nil -> false
  | Ev _ -> true
  | Seq (a, b) -> has_content a || has_content b
  | Branch l -> List.exists has_content l
  | Loop { body; _ } -> has_content body

let of_structure str =
  let ctx = { projs = Hashtbl.create 16; out = ref [] } in
  let rec do_str env items =
    List.fold_left
      (fun env item ->
        match item.pstr_desc with
        | Pstr_value (rf, vbs) ->
            let env', nodes = lower_bindings ctx env rf vbs in
            let n = seq_of nodes in
            if has_content n then begin
              let sl = item.pstr_loc.Location.loc_start.Lexing.pos_lnum in
              let el = item.pstr_loc.Location.loc_end.Lexing.pos_lnum in
              ctx.out :=
                {
                  fname = Printf.sprintf "<top:%d>" sl;
                  params = [];
                  body = n;
                  start_line = sl;
                  end_line = el;
                }
                :: !(ctx.out)
            end;
            env'
        | Pstr_module mb ->
            do_module env mb.pmb_expr;
            env
        | Pstr_recmodule mbs ->
            List.iter (fun mb -> do_module env mb.pmb_expr) mbs;
            env
        | _ -> env)
      env items
  and do_module env me =
    match me.pmod_desc with
    | Pmod_structure s -> ignore (do_str env s)
    | Pmod_functor (_, b) -> do_module env b
    | Pmod_constraint (b, _) -> do_module env b
    | _ -> ()
  in
  ignore (do_str [] str);
  { funcs = List.rev !(ctx.out) }
