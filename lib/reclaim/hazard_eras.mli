(** Hazard eras (Ramalhete & Correia, SPAA'17) — wait-free reclamation.

    Objects are tagged with the era in which they became reachable
    ([birth]) and the era in which they were retired ([del]).  A reader
    publishes the era it is operating in; an object may be reclaimed once no
    published era intersects its [birth, del] lifetime.

    OCaml's GC would reclaim these objects anyway; the point of this module
    is to reproduce and test the paper's reclamation protocol, so [free] is
    a caller hook (tests use it to set a [freed] flag and assert that no
    protected object is ever touched after being freed).

    In OneFile the era clock is the transaction sequence number of [curTx]
    (paper §IV-B), so {!new_era} is not used there; stand-alone users (e.g.
    the Harris list baseline) advance the internal clock instead. *)

type 'a t

val create : ?scan_threshold:int -> max_threads:int -> free:('a -> unit) -> unit -> 'a t

val current_era : 'a t -> int
val new_era : 'a t -> int
(** Advance and return the era clock (stand-alone mode). *)

val set_era : 'a t -> int -> unit
(** Publish the era the calling thread operates in. *)

val protect_current : 'a t -> int
(** Publish the current clock value and return it (with the standard
    re-read loop performed by the caller when needed). *)

val get_protected : 'a t -> read:(unit -> 'b) -> 'b
(** The HE read protocol: read a pointer, and if the era clock advanced
    since the caller's published era, re-publish and re-read.  Every
    pointer dereference in a lock-free traversal must go through this (or
    an equivalent check), otherwise a node installed and retired in newer
    eras could be freed while the stale-era reader holds it. *)

val clear : 'a t -> unit
(** Calling thread no longer accesses protected objects. *)

val era : 'a t -> int -> int
(** [era t i] is the era thread [i] currently publishes (0 = none).
    Exposed so external reclamation schemes — e.g. the prune floor of
    OneFile's in-cell version chains — can compute a floor over every
    active reader. *)

val reset : 'a t -> unit
(** Clear every thread's published era (post-crash recovery: pre-crash
    readers are gone, their pins must not outlive them). *)

val retire : 'a t -> birth:int -> 'a -> unit
(** Retire an object whose lifetime started at era [birth]; it will be
    freed once safe.  The deletion era is the current clock value. *)

val retire_at : 'a t -> birth:int -> del:int -> 'a -> unit
(** Retire with an explicit deletion era — used when the era clock is
    external, as in OneFile where eras are transaction sequence numbers. *)

val flush : 'a t -> unit
(** Attempt to free everything retirable now (testing aid; scans happen
    automatically every [scan_threshold] retirements per thread). *)

val pending : 'a t -> int
(** Number of retired-but-not-yet-freed objects. *)

val set_telemetry : 'a t -> Runtime.Telemetry.t option -> unit
(** Attach (or, with [None], detach) a telemetry registry; the reclaimer
    then counts ["he.retired"], ["he.freed"] and ["he.scans"]. *)
