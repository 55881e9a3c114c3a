(** Machine/location symmetries of a packed exploration context.

    The step rules treat machines and locations uniformly, so every
    volatility-preserving machine bijection composed with an
    ownership-compatible location bijection is an automorphism of the
    LTS.  The reduced {!Explore.Fast} engine deduplicates visited
    states up to this group (orbit representatives), and the {!Props}
    sweep skips start configurations that are not orbit
    representatives.

    The identity is never stored: an empty group array means "no usable
    symmetry" and costs nothing. *)

type perm = {
  mperm : int array;  (** machine [i] ↦ [mperm.(i)] *)
  lperm : int array;  (** dense location index ↦ image index *)
  masks : int array;  (** holder-mask remap table, size [2^n] *)
  hmask : int;        (** [(1 lsl n) - 1] *)
}

val max_machines : int
(** Machine counts above this yield the empty group. *)

val group : Packed.ctx -> perm array
(** Every non-identity automorphism of the context (complete group,
    not a generating set — orbits need no closure computation). *)

val apply : perm -> Packed.t -> Packed.t
(** The action on packed states: words move to their image location
    with holder masks remapped; values ride along. *)

val apply_mask : perm -> int -> int
(** The action on a bitmask of dense location indices (sleep sets). *)

val on_label : Packed.ctx -> perm -> Label.t -> Label.t
(** The action on transition labels; commutes with {!Packed.apply}. *)

val stabilizer :
  Packed.ctx -> perm array -> fixing:Label.t list -> Packed.t -> perm array
(** The subgroup fixing a start state and every given label — the
    symmetries of one {!Explore.Fast.run}. *)

val canon : perm array -> Packed.t -> Packed.t
(** The lexicographically least element of the orbit ([st] itself for
    the empty group). *)

val is_canonical : perm array -> Packed.t -> bool
(** Is the state its own orbit representative? *)

val orbit : perm array -> Packed.t -> Packed.t list
(** The full orbit, deduplicated, the given state first. *)

val pp : perm Fmt.t
