(** The reusable core of every harness run: fabric construction, the
    crash plan, and the RAS fault plan — everything a run needs *around*
    its traffic.

    Historically this machinery lived inside {!Workload}, fused to the
    closed-loop "n workers × k random ops" shape.  The serving engine
    ({!Kv.serve}) needs the same wiring under open-loop session traffic,
    so the shared pieces moved here.  This module alone names the
    crash/fault vocabulary; {!Workload} and {!Kv} use it directly, and
    their runs stay byte-identical — the corpus replay gate pins that.

    Everything here derives its randomness from [env.seed] with the same
    formulas the pre-split {!Workload} used (fault plan seed
    [seed*31 + 17]); callers own the scheduler seed and any per-thread
    RNG derivation, so two layers built on the same env cannot collide
    streams by accident. *)

type crash_spec = {
  at : int;            (** scheduler step at which the machine crashes *)
  machine : int;
  restart_at : int;    (** step at which it recovers (>= [at]) *)
  recovery_threads : int;  (** workers spawned on recovery *)
  recovery_ops : int;
}

(** A scheduled RAS fault, shrunk/serialised exactly like a
    {!crash_spec}.  Link faults are standing configuration handed to the
    fabric's fault plan at creation; poisoning fires as a plan action at
    a scheduler step (the poisoned location is [loc_seed] reduced modulo
    the locations allocated by then). *)
type fault_spec =
  | Degrade_link of {
      m1 : int;
      m2 : int;
      nack_prob : float;
      delay_prob : float;
      delay_cycles : int;
    }
  | Down_link of { m1 : int; m2 : int; from_cycle : int; until_cycle : int }
  | Poison_at of { at : int; loc_seed : int }

(** The fabric/crash/fault slice of a run config — what the core can set
    up without knowing anything about the traffic that will run on it. *)
type env = {
  n_machines : int;
  home : int;                (** machine hosting the object's memory *)
  volatile_home : bool;      (** whether [home]'s memory is volatile *)
  crashes : crash_spec list;
  faults : fault_spec list;  (** [] = no fault plan: byte-identical runs *)
  seed : int;
  evict_prob : float;
  cache_capacity : int;
}

(* The fault plan of a run: none at all for a fault-free env (the
   [?faults:None] path leaves the fabric on the exact pre-fault code
   path); otherwise a plan seeded from the run seed, with the standing
   link faults configured up front.  [Poison_at] specs fire later, as
   scheduler-plan actions ({!install_fault_plan}). *)
let build_faults (e : env) : Fabric.Faults.t option =
  match e.faults with
  | [] -> None
  | specs ->
      let plan = Fabric.Faults.plan ~seed:((e.seed * 31) + 17) () in
      List.iter
        (function
          | Degrade_link { m1; m2; nack_prob; delay_prob; delay_cycles } ->
              Fabric.Faults.degrade_link plan m1 m2 ~nack_prob ~delay_prob
                ~delay_cycles
          | Down_link { m1; m2; from_cycle; until_cycle } ->
              Fabric.Faults.down_link plan m1 m2 ~from_cycle ~until_cycle
          | Poison_at _ -> ())
        specs;
      Some plan

(** [build_fabric e] — the fabric of a run: [n_machines] machines with
    [cache_capacity]-line caches, the home's memory volatile iff
    [volatile_home], seeded eviction noise, and (iff [faults <> []]) the
    RAS plan of [build_faults]. *)
let build_fabric ?tracer (e : env) : Fabric.t =
  Fabric.create ~seed:e.seed ~evict_prob:e.evict_prob ?faults:(build_faults e)
    ?tracer
    (Array.init e.n_machines (fun i ->
         Fabric.machine
           ~volatile:(i = e.home && e.volatile_home)
           ~cache_capacity:e.cache_capacity (Fabric.default_name i)))

(** [install_crash_plan sched e ~record ~recovery] — register [e]'s crash
    plan on [sched]: each spec crashes its machine at [at] (recording the
    crash event through [record]), restarts it at [max restart_at at],
    then hands control to [recovery ~ci spec sched] — the traffic layer's
    hook for spawning whatever recovery work it wants (the closed-loop
    workload spawns [recovery_threads] random-op workers; a service might
    re-attach sessions). *)
let install_crash_plan sched (e : env)
    ~(record : Lincheck.History.event -> unit)
    ~(recovery : ci:int -> crash_spec -> Runtime.Sched.t -> unit) =
  List.iteri
    (fun ci spec ->
      Runtime.Sched.at_step sched spec.at
        (Runtime.Sched.Call
           (fun s ->
             record (Lincheck.History.Crash { machine = spec.machine });
             Runtime.Sched.crash_now s spec.machine));
      Runtime.Sched.at_step sched (max spec.restart_at spec.at)
        (Runtime.Sched.Call
           (fun s ->
             Runtime.Sched.restart s spec.machine;
             recovery ~ci spec s)))
    e.crashes

(** [install_fault_plan sched e] — register [e]'s scheduled fault
    actions: each [Poison_at] poisons a location at its step ([loc_seed]
    reduced modulo the locations allocated by then; nothing to poison →
    no-op).  Standing link faults need no action — [build_faults]
    configured them into the fabric's plan. *)
let install_fault_plan sched (e : env) =
  List.iter
    (function
      | Poison_at { at; loc_seed } ->
          Runtime.Sched.at_step sched at
            (Runtime.Sched.Call
               (fun s ->
                 let fab = Runtime.Sched.fabric s in
                 let n = Fabric.n_locs fab in
                 if n > 0 then Fabric.poison fab (abs loc_seed mod n)))
      | Degrade_link _ | Down_link _ -> ())
    e.faults
