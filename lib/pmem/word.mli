(** A TMType cell content: a value word, its sequence word, and the
    word it replaced.

    The paper's basic data type (Alg. 1) is two adjacent 64-bit words
    modified together by one CMPXCHG16B.  Here the two words are an
    immutable boxed pair, swapped atomically by a CAS on the enclosing
    cell — same atomicity, no bit stealing, ABA-free by monotone [seq].

    The box also carries [p], the word it overwrote (its snapshot
    predecessor), so the version a pinned snapshot reader needs is
    published by the same CAS that publishes the new value (DESIGN.md
    §13).  A chain runs towards strictly smaller [s] and ends at {!nil};
    {!make} builds a word with no predecessor.  [v] and [s] never change
    after construction; [p] only ever changes to {!nil}, through {!cut}.

    Compare words by physical equality ([==], which is what the region
    CAS does): {!nil} links to itself, so structural equality ([=]) on
    two distinct words does not terminate. *)

type t = private { v : int; s : int; mutable p : t }

val nil : t
(** End-of-chain sentinel ([nil.p == nil]); not a cell content. *)

val make : int -> int -> t
(** [make v s] has no predecessor. *)

val make_over : int -> int -> t -> t
(** [make_over v s w] is [make v s] with [w] as its predecessor. *)

val cut : t -> unit
(** [cut w] drops everything behind [w] ([w.p <- nil]): a plain,
    unsynchronized store.  Sound only when no reader that may walk the
    chain needs a node older than [w] — Core0 cuts the node that covers
    its prune floor. *)

val zero : t

val pp : Format.formatter -> t -> unit
