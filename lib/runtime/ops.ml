(** Thread-level CXL0 primitives.

    These are the high-level load/store/flush primitives the paper assumes
    a language binding would expose (§3.5: "a mapping from CXL
    transactions to higher-level languages will be available").  Each
    primitive executes atomically on the fabric and then yields, creating
    a scheduling point between any two primitives — matching the paper's
    in-order, one-instruction-at-a-time presentation.

    When the fabric carries a RAS fault plan, every primitive goes
    through a retry engine: transient link faults (NACKs, completion
    timeouts) are transparently retried with exponential backoff in
    simulated cycles plus jitter drawn from the sched seed's dedicated
    retry stream; only exhausted retries and non-transient faults
    (poison) surface — as [Error] from the [_result] variants, as the
    {!Fault} exception from the plain ones.  Without a plan the retry
    engine is a single [match] on [None]: the instruction stream,
    charges, and RNG draws are byte-identical to the pre-fault
    runtime. *)

type loc = Fabric.loc

let yield = Sched.yield

exception Fault of Fabric.Faults.fault

let () =
  Printexc.register_printer (function
    | Fault f -> Some (Fmt.str "Ops.Fault(%a)" Fabric.Faults.pp_fault f)
    | _ -> None)

(* One primitive under the fabric's retry policy.  Each attempt —
   including the last, failed one — ends in exactly one yield, so a
   faulted primitive is still one scheduling point per fabric access,
   and the fault-free path is precisely [f (); yield]. *)
let protect (ctx : Sched.ctx) (f : unit -> ('a, Fabric.Faults.fault) result)
    : ('a, Fabric.Faults.fault) result =
  match Fabric.faults ctx.fab with
  | None ->
      let r = f () in
      yield ctx;
      r
  | Some plan ->
      let pol = Fabric.Faults.retry plan in
      let rec attempt n =
        match f () with
        | Ok _ as ok ->
            yield ctx;
            ok
        | Error e
          when Fabric.Faults.is_transient e && n < pol.Fabric.Faults.retries
          ->
            let st = Fabric.stats ctx.fab in
            st.Fabric.Stats.retries <- st.Fabric.Stats.retries + 1;
            let backoff =
              min pol.Fabric.Faults.backoff_max
                (pol.Fabric.Faults.backoff_base lsl n)
            in
            let charged =
              backoff + Sched.jitter ctx pol.Fabric.Faults.backoff_base
            in
            Fabric.charge ctx.fab charged;
            (match Fabric.tracer ctx.fab with
            | None -> ()
            | Some tr ->
                Sched.note_retry_cycles ctx charged;
                Obs.Tracer.emit tr
                  (Obs.Event.Retry
                     {
                       machine = ctx.machine;
                       attempt = n;
                       backoff;
                       cycle = Fabric.cycles ctx.fab;
                     }));
            yield ctx;
            attempt (n + 1)
        | Error _ as e ->
            yield ctx;
            e
      in
      attempt 0

let ok_or_raise = function Ok v -> v | Error f -> raise (Fault f)

(** [load_result ctx x] — coherent load, surfacing exhausted/persistent
    faults as [Error]. *)
let load_result (ctx : Sched.ctx) x =
  protect ctx (fun () -> Fabric.load_result ctx.fab ctx.machine x)

let lstore_result (ctx : Sched.ctx) x v =
  protect ctx (fun () -> Fabric.lstore_result ctx.fab ctx.machine x v)

let rstore_result (ctx : Sched.ctx) x v =
  protect ctx (fun () -> Fabric.rstore_result ctx.fab ctx.machine x v)

let mstore_result (ctx : Sched.ctx) x v =
  protect ctx (fun () -> Fabric.mstore_result ctx.fab ctx.machine x v)

let lflush_result (ctx : Sched.ctx) x =
  protect ctx (fun () -> Fabric.lflush_result ctx.fab ctx.machine x)

let rflush_result (ctx : Sched.ctx) x =
  protect ctx (fun () -> Fabric.rflush_result ctx.fab ctx.machine x)

let faa_result (ctx : Sched.ctx) x d =
  protect ctx (fun () -> Fabric.faa_result ctx.fab ctx.machine x d)

let cas_result (ctx : Sched.ctx) x ~expected ~desired ~kind =
  protect ctx (fun () ->
      Fabric.cas_result ctx.fab ctx.machine x ~expected ~desired ~kind)

(* The plain primitives take a fabric-level fast path when no fault plan
   is attached: call the un-faultable fabric primitive directly and
   yield.  Same fabric effects and the same single scheduling point as
   the [_result] route — minus its per-call closure and [Ok] box, which
   sit on the interpreter's innermost loop. *)

(** [load ctx x] — coherent load (the model's single [Load]). *)
let load (ctx : Sched.ctx) x =
  match Fabric.faults ctx.fab with
  | None ->
      let v = Fabric.load ctx.fab ctx.machine x in
      yield ctx;
      v
  | Some _ -> ok_or_raise (load_result ctx x)

(** [lstore ctx x v] — LStore: complete once in the local cache. *)
let lstore (ctx : Sched.ctx) x v =
  match Fabric.faults ctx.fab with
  | None ->
      Fabric.lstore ctx.fab ctx.machine x v;
      yield ctx
  | Some _ -> ok_or_raise (lstore_result ctx x v)

(** [rstore ctx x v] — RStore: complete once at the owner's cache. *)
let rstore (ctx : Sched.ctx) x v =
  match Fabric.faults ctx.fab with
  | None ->
      Fabric.rstore ctx.fab ctx.machine x v;
      yield ctx
  | Some _ -> ok_or_raise (rstore_result ctx x v)

(** [mstore ctx x v] — MStore: complete once in the owner's physical
    memory. *)
let mstore (ctx : Sched.ctx) x v =
  match Fabric.faults ctx.fab with
  | None ->
      Fabric.mstore ctx.fab ctx.machine x v;
      yield ctx
  | Some _ -> ok_or_raise (mstore_result ctx x v)

(** [lflush ctx x] — LFlush: write the line back one hierarchy level. *)
let lflush (ctx : Sched.ctx) x =
  match Fabric.faults ctx.fab with
  | None ->
      Fabric.lflush ctx.fab ctx.machine x;
      yield ctx
  | Some _ -> ok_or_raise (lflush_result ctx x)

(** [rflush ctx x] — RFlush: force the line into the owner's physical
    memory. *)
let rflush (ctx : Sched.ctx) x =
  match Fabric.faults ctx.fab with
  | None ->
      Fabric.rflush ctx.fab ctx.machine x;
      yield ctx
  | Some _ -> ok_or_raise (rflush_result ctx x)

(** [store ctx kind x v] — store with dynamic strength. *)
let store ctx (kind : Cxl0.Label.store_kind) x v =
  match kind with
  | L -> lstore ctx x v
  | R -> rstore ctx x v
  | M -> mstore ctx x v

(** [flush ctx kind x] — flush with dynamic strength. *)
let flush ctx (kind : Cxl0.Label.flush_kind) x =
  match kind with LF -> lflush ctx x | RF -> rflush ctx x

(** [faa ctx x d] — atomic fetch-and-add; returns the previous value. *)
let faa (ctx : Sched.ctx) x d =
  match Fabric.faults ctx.fab with
  | None ->
      let v = Fabric.faa ctx.fab ctx.machine x d in
      yield ctx;
      v
  | Some _ -> ok_or_raise (faa_result ctx x d)

(** [cas ctx x ~expected ~desired ~kind] — atomic compare-and-swap whose
    successful store has strength [kind]. *)
let cas (ctx : Sched.ctx) x ~expected ~desired ~kind =
  match Fabric.faults ctx.fab with
  | None ->
      let ok = Fabric.cas ctx.fab ctx.machine x ~expected ~desired ~kind in
      yield ctx;
      ok
  | Some _ -> ok_or_raise (cas_result ctx x ~expected ~desired ~kind)

(** [run_batch ctx b] — issue and retire a whole {!Fabric.batch} as one
    pipelined submission: every queued primitive executes back to back,
    followed by a {e single} scheduling point — that one fabric call
    instead of N dispatches (and N yields) is the batching win.  An
    empty batch is a no-op (no yield).

    On a fabric with a RAS plan the batch degrades to per-primitive
    issue through the retry engine — each slot individually retried and
    yielded, exactly as if issued unbatched — because the retry policy
    must see every link crossing.  A fault that survives the policy
    raises {!Fault}, leaving later slots unissued. *)
let run_batch (ctx : Sched.ctx) b =
  if Fabric.batch_length b > 0 then
    match Fabric.faults ctx.fab with
    | None ->
        Fabric.run_batch ctx.fab b;
        yield ctx
    | Some _ ->
        for k = 0 to Fabric.batch_length b - 1 do
          ok_or_raise
            (protect ctx (fun () -> Fabric.run_batch_op_result ctx.fab b k))
        done

(** [alloc ctx ~owner] — allocate a fresh zero-initialised location on
    machine [owner]. *)
let alloc (ctx : Sched.ctx) ~owner = Fabric.alloc ctx.fab ~owner

(** [alloc_local ctx] — allocate on the calling thread's machine. *)
let alloc_local (ctx : Sched.ctx) = Fabric.alloc ctx.fab ~owner:ctx.machine
