(* mutable-ok: [p] is written only by [cut], a racy plain store of [nil]
   into a node that no pinned snapshot reader can still need to walk
   past (DESIGN.md §13: the node covers the prune floor, and every
   reader's epoch is >= the floor).  OCaml 5 gives a racing read of [p]
   either the old link or [nil], never a torn pointer, so a reader that
   races the cut stops at this node either way. *)

type t = { v : int; s : int; mutable p : t }

let rec nil = { v = 0; s = -1; p = nil }
let make v s = { v; s; p = nil }
let make_over v s w = { v; s; p = w }
let zero = make 0 0
let cut w = if w.p != nil then w.p <- nil
let pp ppf t = Format.fprintf ppf "(%d,#%d)" t.v t.s
