(** Machines participating in the CXL fabric (§3.1).

    The system model considers [N] type-2 devices, each with optional
    compute capacity and optional shared memory that it owns and whose
    coherence it manages.  The only per-machine attribute the operational
    semantics depends on is whether its memory is volatile (re-initialised
    on crash) or non-volatile (survives crashes). *)

type id = int
(** Machines are identified by a small integer in [0, n). *)

type persistence =
  | Volatile      (** contents lost on crash (re-initialised to 0) *)
  | Non_volatile  (** contents survive crashes *)

type spec = {
  name : string;  (** human-readable label, e.g. ["M1"] *)
  persistence : persistence;
}
(** Static description of one machine. *)

type system = { machines : spec array }
(** Static description of the whole fabric.  Never changes during
    execution, so it is kept outside configurations. *)

val make : ?persistence:persistence -> string -> spec
(** [make name] — a machine spec; non-volatile by default. *)

val system : spec array -> system
(** [system specs] — machine [i] is [specs.(i)]. *)

val uniform : ?persistence:persistence -> int -> system
(** [uniform n] — an [n]-machine system with uniform persistence
    (non-volatile by default), named ["M1" .. "Mn"] as in the paper's
    litmus tests. *)

val n_machines : system -> int
val spec : system -> id -> spec
val name : system -> id -> string
val is_volatile : system -> id -> bool
val is_non_volatile : system -> id -> bool

val ids : system -> id list
(** All machine ids, in order. *)

val pp_system : system Fmt.t
