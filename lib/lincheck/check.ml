(** Linearizability checking (Wing–Gong search with memoisation).

    Given a sequential specification and the operations of a history, the
    checker searches for a linearization: a total order of the operations
    that (a) respects the real-time order — an operation that responded
    before another was invoked must linearize first — and (b) follows the
    specification.

    Pending operations (invocations without responses — threads killed by
    a crash, per §4.2) may be *completed* with any specification-legal
    result or *omitted* entirely, exactly as the definition of
    linearizability allows.

    The search memoises visited (linearized-set, spec-state) pairs, the
    standard Wing–Gong/Lowe optimisation; histories of up to ~20
    operations check instantly. *)

type outcome = {
  ok : bool;
  witness : (History.op * int) list;
      (** a valid linearization with chosen results, when [ok] *)
  explored : int;  (** search nodes visited (diagnostics) *)
}

let max_ops = 62 (* operations tracked in an int bitmask *)

type error = History_too_long of { length : int; max_ops : int }

let pp_error ppf (History_too_long { length; max_ops }) =
  Fmt.pf ppf "history too long for the bitmask search (%d ops, max %d)"
    length max_ops

(** [linearizable spec ops] — is there a linearization of [ops]?  [ops]
    usually comes from {!History.ops}; crash events never produce ops, so
    passing a crashed history's ops checks *durable* linearizability
    (Remark 1: the crash-free projection is checked with the unmodified
    happens-before order).  Histories beyond {!max_ops} operations are
    rejected with a typed error — the search's bitmask cannot represent
    them. *)
let linearizable (module M : Spec.S) (ops : History.op list) :
    (outcome, error) result =
  (* fault-aborted ops are pending (may-complete-or-omit): demote here
     so every caller gets the sound treatment *)
  let ops = Array.of_list (History.demote_faulted ops) in
  let n = Array.length ops in
  if n > max_ops then Error (History_too_long { length = n; max_ops })
  else begin
  let explored = ref 0 in
  (* completed_mask: ops that must eventually linearize *)
  let completed_mask = ref 0 in
  Array.iteri
    (fun idx o ->
      if o.History.ret <> None then completed_mask := !completed_mask lor (1 lsl idx))
    ops;
  (* precedes.(j) = bitmask of ops that must linearize before op j *)
  let precedes =
    Array.init n (fun j ->
        let oj = ops.(j) in
        let mask = ref 0 in
        Array.iteri
          (fun i oi ->
            match oi.History.res_at with
            | Some r when r < oj.History.inv_at -> mask := !mask lor (1 lsl i)
            | _ -> ())
          ops;
        !mask)
  in
  (* memo: (mask, state-hash) -> states already explored with that mask *)
  (* start small: fuzz histories visit a few hundred nodes at most, and
     the table doubles as needed — a 1024-bucket table per check was
     measurable allocation across a campaign *)
  let memo : (int * int, M.state list) Hashtbl.t = Hashtbl.create 64 in
  let seen mask state =
    let key = (mask, M.hash state) in
    let states = Option.value ~default:[] (Hashtbl.find_opt memo key) in
    if List.exists (M.equal state) states then true
    else begin
      Hashtbl.replace memo key (state :: states);
      false
    end
  in
  let exception Found of (History.op * int) list in
  let rec dfs mask state acc =
    incr explored;
    if mask land !completed_mask = !completed_mask then
      raise (Found (List.rev acc))
    else if not (seen mask state) then
      for j = 0 to n - 1 do
        if mask land (1 lsl j) = 0 && precedes.(j) land mask = precedes.(j)
        then begin
          let o = ops.(j) in
          let results = M.step state o.History.name o.History.args in
          match o.History.ret with
          | Some History.Corrupt | Some History.Faulted ->
              (* a corrupted response matches no specification result:
                 this branch is dead, so the completed op can never
                 linearize and the search necessarily fails.  Faulted
                 responses were demoted to pending at entry, so that
                 case is unreachable. *)
              ()
          | Some (History.Ret r) ->
              (* completed op: its recorded result must be legal *)
              List.iter
                (fun (r', state') ->
                  if r' = r then
                    dfs (mask lor (1 lsl j)) state' ((o, r) :: acc))
                results
          | None ->
              (* pending op: completing it with any legal result is one
                 branch; omitting it is simply never choosing j *)
              List.iter
                (fun (r', state') ->
                  dfs (mask lor (1 lsl j)) state' ((o, r') :: acc))
                results
        end
      done
  in
  try
    dfs 0 M.init [];
    Ok { ok = false; witness = []; explored = !explored }
  with Found w -> Ok { ok = true; witness = w; explored = !explored }
  end
