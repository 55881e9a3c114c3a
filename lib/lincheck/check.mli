(** Linearizability checking: Wing–Gong search with memoisation.

    Finds a total order of the operations respecting real-time order
    (an operation that responded before another was invoked linearizes
    first) and the sequential specification.  Pending operations may be
    completed with any legal result or omitted, as linearizability
    allows. *)

type outcome = {
  ok : bool;
  witness : (History.op * int) list;
      (** a valid linearization with chosen results, when [ok] *)
  explored : int;  (** search nodes visited *)
}

val max_ops : int
(** Operations are tracked in an int bitmask; histories beyond this are
    rejected. *)

type error = History_too_long of { length : int; max_ops : int }
(** The search cannot represent the history (more than {!max_ops}
    operations in the bitmask). *)

val pp_error : error Fmt.t

val linearizable : Spec.t -> History.op list -> (outcome, error) result
(** Passing {!History.ops} of a crashed history checks *durable*
    linearizability (Remark 1: the crash-free projection with the
    unmodified happens-before order).  [Error] iff the history has more
    than {!max_ops} operations. *)
