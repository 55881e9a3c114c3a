(** Asynchronous flushes with an explicit barrier — the §3.5 extension.

    The CXL specification only has synchronous flushes; the paper sketches
    how CXL0 could be extended with CLFLUSHOPT/CLWB-style *asynchronous*
    flushes whose effect is delayed until a subsequent SFENCE/DSB-style
    barrier, citing the persistency-buffer approach of Khyzha & Lahav and
    Raad et al.  We realise the simplest member of that design space:

    - [FlushOpt (k, i, x)] records a pending flush obligation of strength
      [k] for location [x] on machine [i]; it is always enabled and does
      not move data by itself.
    - [SFence i] blocks until *every* pending obligation of machine [i]
      is discharged — i.e. the corresponding synchronous-flush
      precondition holds (the line has drained from [i]'s cache for an
      [LF] obligation, from all caches for [RF]).  It then clears the
      obligations.
    - A crash of machine [i] drops [i]'s obligations (they were only
      book-keeping in the crashed machine's store path).

    The extended configuration pairs a base {!Config.t} with per-machine
    obligation sets, and the module provides τ-closure / feasibility
    analogous to {!Explore} so that litmus tests over the extended label
    set can be decided. *)

module Ob = struct
  (* A pending obligation: flush strength and target location. *)
  type t = Label.flush_kind * Loc.t

  let compare (k1, x1) (k2, x2) =
    match compare k1 k2 with 0 -> Loc.compare x1 x2 | c -> c
end

module Obset = Set.Make (Ob)

module Pmap = Map.Make (Int)
(* machine id -> obligation set; absent = empty *)

type config = {
  base : Config.t;
  pending : Obset.t Pmap.t;
}

let init = { base = Config.init; pending = Pmap.empty }

let pending_of cfg i =
  match Pmap.find_opt i cfg.pending with Some s -> s | None -> Obset.empty

let set_pending cfg i s =
  if Obset.is_empty s then { cfg with pending = Pmap.remove i cfg.pending }
  else { cfg with pending = Pmap.add i s cfg.pending }

let compare_config a b =
  match Config.compare a.base b.base with
  | 0 -> Pmap.compare Obset.compare a.pending b.pending
  | c -> c

module Cset = Set.Make (struct
  type t = config

  let compare = compare_config
end)

type label =
  | Base of Label.t           (** any CXL0 label *)
  | Flush_opt of Label.flush_kind * Machine.id * Loc.t
      (** asynchronous flush: record the obligation, return immediately *)
  | Sfence of Machine.id
      (** barrier: block until machine's obligations are discharged *)

(** [discharged sys cfg i] holds when every pending obligation of machine
    [i] satisfies its synchronous-flush precondition in [cfg.base]. *)
let discharged sys cfg i =
  Obset.for_all
    (fun (k, x) -> Semantics.flush_enabled sys cfg.base k i x)
    (pending_of cfg i)

let apply sys cfg = function
  | Base (Label.Crash i as l) ->
      (* crash additionally drops the machine's obligations *)
      Option.map
        (fun base -> set_pending { cfg with base } i Obset.empty)
        (Semantics.apply sys cfg.base l)
  | Base l ->
      Option.map (fun base -> { cfg with base }) (Semantics.apply sys cfg.base l)
  | Flush_opt (k, i, x) ->
      Some (set_pending cfg i (Obset.add (k, x) (pending_of cfg i)))
  | Sfence i ->
      if discharged sys cfg i then Some (set_pending cfg i Obset.empty)
      else None

let taus sys cfg =
  List.map (fun (_, base) -> { cfg with base }) (Semantics.taus sys cfg.base)

let tau_closure sys (s : Cset.t) : Cset.t =
  let seen = ref s in
  let frontier = ref (Cset.elements s) in
  while !frontier <> [] do
    let next = List.concat_map (taus sys) !frontier in
    let fresh = List.filter (fun c -> not (Cset.mem c !seen)) next in
    List.iter (fun c -> seen := Cset.add c !seen) fresh;
    frontier := fresh
  done;
  !seen

let step sys s l =
  Cset.fold
    (fun cfg acc ->
      match apply sys cfg l with
      | Some cfg' -> Cset.add cfg' acc
      | None -> acc)
    (tau_closure sys s) Cset.empty

let run sys cfg ls =
  tau_closure sys (List.fold_left (step sys) (Cset.singleton cfg) ls)

(** [feasible sys ls] — is the extended-label sequence realisable from the
    initial configuration? *)
let feasible sys ls = not (Cset.is_empty (run sys init ls))
