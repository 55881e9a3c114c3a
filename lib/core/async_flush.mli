(** Asynchronous flushes with an explicit barrier — the §3.5 extension.

    [Flush_opt] records a pending flush obligation (always enabled, moves
    no data); [Sfence] blocks until every obligation of its machine is
    discharged — the corresponding synchronous-flush precondition holds —
    and then clears them; a machine's crash drops its obligations.

    The module mirrors {!Explore} for the extended label set. *)

module Ob : sig
  type t = Label.flush_kind * Loc.t

  val compare : t -> t -> int
end

module Obset : Set.S with type elt = Ob.t
module Pmap : Map.S with type key = int

type config = {
  base : Config.t;
  pending : Obset.t Pmap.t;  (** per-machine obligations; absent = none *)
}

val init : config

module Cset : Set.S with type elt = config

type label =
  | Base of Label.t
  | Flush_opt of Label.flush_kind * Machine.id * Loc.t
  | Sfence of Machine.id

val discharged : Machine.system -> config -> Machine.id -> bool
(** Every pending obligation's precondition holds in [config.base]. *)

val apply : Machine.system -> config -> label -> config option
val tau_closure : Machine.system -> Cset.t -> Cset.t
val step : Machine.system -> Cset.t -> label -> Cset.t
val run : Machine.system -> config -> label list -> Cset.t

val feasible : Machine.system -> label list -> bool
(** Realisability from the initial configuration. *)
