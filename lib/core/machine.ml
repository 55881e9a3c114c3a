(** Machines participating in the CXL fabric.

    The paper's system model (§3.1) considers [N] type-2 devices, each with
    optional compute capacity and optional shared memory that it owns and
    whose coherence it manages.  A machine's shared memory is either
    volatile or non-volatile; this is the only per-machine attribute the
    operational semantics (§3.3) depends on (the crash rule re-initialises
    volatile memory and preserves non-volatile memory). *)

type id = int
(** Machines are identified by a small integer in [0, n). *)

type persistence =
  | Volatile      (** contents lost on crash (re-initialised to 0) *)
  | Non_volatile  (** contents survive crashes *)

let pp_persistence ppf = function
  | Volatile -> Fmt.string ppf "volatile"
  | Non_volatile -> Fmt.string ppf "non-volatile"

type spec = {
  name : string;           (** human-readable label, e.g. ["M1"] *)
  persistence : persistence;
}
(** Static description of one machine. *)

type system = {
  machines : spec array;
}
(** Static description of the whole fabric.  This is *not* part of a
    configuration: it never changes during execution, so configurations
    can be compared without it. *)

let make ?(persistence = Non_volatile) name = { name; persistence }

(** [system specs] builds a system descriptor; machine [i] is [specs.(i)]. *)
let system machines = { machines }

(** [uniform ~n ~persistence] builds an [n]-machine system, all with the
    same memory persistence, named ["M1" .. "Mn"] as in the paper's litmus
    tests. *)
let uniform ?(persistence = Non_volatile) n =
  system
    (Array.init n (fun i -> make ~persistence (Printf.sprintf "M%d" (i + 1))))

let n_machines sys = Array.length sys.machines

let spec sys i = sys.machines.(i)

let name sys i = (spec sys i).name

let is_volatile sys i =
  match (spec sys i).persistence with Volatile -> true | Non_volatile -> false

let is_non_volatile sys i = not (is_volatile sys i)

(** All machine ids of a system, in order. *)
let ids sys = List.init (n_machines sys) Fun.id

let pp_spec ppf s = Fmt.pf ppf "%s(%a)" s.name pp_persistence s.persistence

let pp_system ppf sys =
  Fmt.pf ppf "@[<h>{%a}@]" Fmt.(array ~sep:(any ";@ ") pp_spec) sys.machines
