(** Thread-level CXL0 primitives — the high-level load/store/flush
    binding the paper assumes (§3.5).  Each primitive executes atomically
    on the fabric and then yields, so any two primitives of different
    threads can interleave.

    When the fabric carries a {!Fabric.Faults} plan, every primitive
    transparently retries transient link faults (NACKs, completion
    timeouts) under the plan's policy — exponential backoff charged in
    simulated cycles, jitter from the sched seed — and each attempt ends
    in one scheduling point.  Only exhausted retries and poison surface:
    as [Error] from the [_result] variants, as {!Fault} from the plain
    ones.  Without a plan, behaviour is byte-identical to the pre-fault
    runtime. *)

type loc = Fabric.loc

val yield : Sched.ctx -> unit

exception Fault of Fabric.Faults.fault
(** Raised by the plain primitives when a fault survives the retry
    policy (or is not retryable, like poison). *)

(** {1 Typed-fault variants} *)

val load_result : Sched.ctx -> loc -> (int, Fabric.Faults.fault) result
val lstore_result : Sched.ctx -> loc -> int -> (unit, Fabric.Faults.fault) result
val rstore_result : Sched.ctx -> loc -> int -> (unit, Fabric.Faults.fault) result
val mstore_result : Sched.ctx -> loc -> int -> (unit, Fabric.Faults.fault) result
val lflush_result : Sched.ctx -> loc -> (unit, Fabric.Faults.fault) result
val rflush_result : Sched.ctx -> loc -> (unit, Fabric.Faults.fault) result
val faa_result : Sched.ctx -> loc -> int -> (int, Fabric.Faults.fault) result

val cas_result :
  Sched.ctx -> loc -> expected:int -> desired:int ->
  kind:Cxl0.Label.store_kind -> (bool, Fabric.Faults.fault) result

(** {1 Plain primitives} *)

val load : Sched.ctx -> loc -> int
(** The model's single coherent [Load]. *)

val lstore : Sched.ctx -> loc -> int -> unit
val rstore : Sched.ctx -> loc -> int -> unit
val mstore : Sched.ctx -> loc -> int -> unit

val lflush : Sched.ctx -> loc -> unit
val rflush : Sched.ctx -> loc -> unit

val store : Sched.ctx -> Cxl0.Label.store_kind -> loc -> int -> unit
val flush : Sched.ctx -> Cxl0.Label.flush_kind -> loc -> unit

val faa : Sched.ctx -> loc -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

val cas :
  Sched.ctx -> loc -> expected:int -> desired:int ->
  kind:Cxl0.Label.store_kind -> bool
(** Atomic compare-and-swap; a successful store has strength [kind]. *)

val run_batch : Sched.ctx -> Fabric.batch -> unit
(** Issue and retire a whole {!Fabric.batch} as one pipelined
    submission: all queued primitives back to back, then a single
    scheduling point.  Empty batches are a no-op (no yield).  On a
    fabric with a fault plan the batch degrades to per-primitive issue
    through the retry engine (each slot retried and yielded
    individually); a surviving fault raises {!Fault}, leaving later
    slots unissued. *)

val alloc : Sched.ctx -> owner:int -> loc
val alloc_local : Sched.ctx -> loc
