(* The (durable) linearizability checker on hand-crafted histories:
   well-formedness, op extraction, the Wing–Gong search (including
   pending-operation completion and omission), and the durable wrapper. *)

open Lincheck

let inv tid op args = History.Inv { tid; op; args }
let res tid r = History.Res { tid; ret = History.Ret r }
let crash m = History.Crash { machine = m }

(* ------------------------------------------------------------------ *)
(* History plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let test_well_formed () =
  Alcotest.(check bool) "alternating ok" true
    (History.well_formed [ inv 0 "read" []; res 0 1; inv 0 "read" []; res 0 2 ]);
  Alcotest.(check bool) "pending tail ok" true
    (History.well_formed [ inv 0 "read" [] ]);
  Alcotest.(check bool) "double invoke bad" false
    (History.well_formed [ inv 0 "read" []; inv 0 "read" [] ]);
  Alcotest.(check bool) "orphan response bad" false
    (History.well_formed [ res 0 1 ]);
  Alcotest.(check bool) "crashes transparent" true
    (History.well_formed [ inv 0 "read" []; crash 1; res 0 1 ])

let test_ops_extraction () =
  let h =
    [ inv 0 "write" [ 1 ]; inv 1 "read" []; res 0 0; crash 0; inv 2 "read" [] ]
  in
  let ops = History.ops h in
  Alcotest.(check int) "three ops" 3 (List.length ops);
  let o0 = List.nth ops 0 and o1 = List.nth ops 1 and o2 = List.nth ops 2 in
  Alcotest.(check (option int)) "completed" (Some 0) (History.ret_int o0);
  Alcotest.(check (option int)) "pending" None (History.ret_int o1);
  Alcotest.(check (option int)) "pending tail" None (History.ret_int o2);
  Alcotest.(check bool) "inv order" true
    (o0.History.inv_at < o1.History.inv_at && o1.History.inv_at < o2.History.inv_at);
  (* interleaved threads: responses out of invocation order, a faulted
     response, a pending op in the middle of the id order, and a thread
     reused after its first op completed *)
  let h =
    [
      inv 0 "write" [ 1 ]; inv 1 "write" [ 2 ]; inv 2 "read" []; res 1 0;
      inv 1 "read" []; History.Res { tid = 0; ret = History.Faulted };
      crash 1; res 2 2; inv 0 "write" [ 3 ]; res 0 0;
    ]
  in
  let op id tid name args ret inv_at res_at =
    { History.id; tid; name; args; ret; inv_at; res_at }
  in
  Alcotest.(check bool) "interleaved ops, in id order" true
    (History.ops h
    = [
        op 0 0 "write" [ 1 ] (Some History.Faulted) 0 (Some 5);
        op 1 1 "write" [ 2 ] (Some (History.Ret 0)) 1 (Some 3);
        op 2 2 "read" [] (Some (History.Ret 2)) 2 (Some 7);
        op 3 1 "read" [] None 4 None;
        op 4 0 "write" [ 3 ] (Some (History.Ret 0)) 8 (Some 9);
      ])

let test_strip_and_count () =
  let h = [ inv 0 "read" []; crash 0; res 0 0; crash 1 ] in
  Alcotest.(check int) "two crashes" 2 (History.crash_count h);
  Alcotest.(check int) "stripped" 2 (List.length (History.strip_crashes h))

let test_ops_rejects_ill_formed () =
  Alcotest.check_raises "invalid" (Invalid_argument "History.ops: ill-formed history")
    (fun () -> ignore (History.ops [ res 0 1 ]))

(* ------------------------------------------------------------------ *)
(* Sequential specs                                                    *)
(* ------------------------------------------------------------------ *)

let test_spec_conforms () =
  Alcotest.(check bool) "register trace" true
    (Spec.conforms Specs.register
       [ ("read", [], 0); ("write", [ 5 ], 0); ("read", [], 5) ]);
  Alcotest.(check bool) "register bad read" false
    (Spec.conforms Specs.register [ ("write", [ 5 ], 0); ("read", [], 4) ]);
  Alcotest.(check bool) "counter" true
    (Spec.conforms Specs.counter
       [ ("inc", [], 0); ("inc", [], 1); ("get", [], 2) ]);
  Alcotest.(check bool) "stack lifo" true
    (Spec.conforms Specs.stack
       [
         ("push", [ 1 ], 0); ("push", [ 2 ], 0); ("pop", [], 2); ("pop", [], 1);
         ("pop", [], Spec.absent);
       ]);
  Alcotest.(check bool) "stack not fifo" false
    (Spec.conforms Specs.stack
       [ ("push", [ 1 ], 0); ("push", [ 2 ], 0); ("pop", [], 1) ]);
  Alcotest.(check bool) "queue fifo" true
    (Spec.conforms Specs.queue
       [ ("enq", [ 1 ], 0); ("enq", [ 2 ], 0); ("deq", [], 1); ("deq", [], 2) ]);
  Alcotest.(check bool) "set" true
    (Spec.conforms Specs.set
       [
         ("add", [ 3 ], 1); ("add", [ 3 ], 0); ("contains", [ 3 ], 1);
         ("remove", [ 3 ], 1); ("contains", [ 3 ], 0); ("remove", [ 3 ], 0);
       ]);
  Alcotest.(check bool) "map" true
    (Spec.conforms Specs.map
       [
         ("get", [ 1 ], Spec.absent); ("put", [ 1; 9 ], 0); ("get", [ 1 ], 9);
         ("put", [ 1; 8 ], 0); ("get", [ 1 ], 8); ("del", [ 1 ], 1);
         ("get", [ 1 ], Spec.absent); ("del", [ 1 ], 0);
       ])

(* The map spec's step against the full-sort [put] it replaced, on
   random sorted states and ops: same results, same states, so the
   checker's search (explored counts, witnesses) cannot move. *)
let sorted_map_step s op args =
  match (op, args) with
  | "put", [ k; v ] ->
      [ (0, List.sort compare ((k, v) :: List.remove_assoc k s)) ]
  | "get", [ k ] ->
      [ ((match List.assoc_opt k s with Some v -> v | None -> Spec.absent), s) ]
  | "del", [ k ] ->
      [ ((if List.mem_assoc k s then 1 else 0), List.remove_assoc k s) ]
  | _ -> []

let prop_map_step_matches_sort =
  let state =
    QCheck.Gen.(
      map
        (fun kvs ->
          List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs)
        (list_size (int_bound 8) (pair (int_range (-2) 10) small_nat)))
  in
  let op =
    QCheck.Gen.(
      int_range (-2) 11 >>= fun k ->
      small_nat >>= fun v ->
      oneofl [ ("put", [ k; v ]); ("get", [ k ]); ("del", [ k ]) ])
  in
  QCheck.Test.make ~name:"map step = full-sort put" ~count:2000
    (QCheck.make
       ~print:
         QCheck.Print.(
           pair (list (pair int int)) (list (pair string (list int))))
       QCheck.Gen.(pair state (list_size (int_bound 10) op)))
    (fun (s0, ops) ->
      let rec go s = function
        | [] -> true
        | (op, args) :: rest -> (
            match (Specs.map_step s op args, sorted_map_step s op args) with
            | [ (r, s') ], [ (r', s'') ] -> r = r' && s' = s'' && go s' rest
            | _ -> false)
      in
      go s0 ops)

let test_absent_constant_agrees () =
  Alcotest.(check int) "dstruct sentinel = spec sentinel" Spec.absent
    Dstruct.Absent.absent

(* ------------------------------------------------------------------ *)
(* Linearizability search                                              *)
(* ------------------------------------------------------------------ *)

let lin spec h =
  match Check.linearizable spec (History.ops h) with
  | Ok o -> o.Check.ok
  | Error e -> Alcotest.failf "unexpected rejection: %a" Check.pp_error e

let test_lin_concurrent_register () =
  (* w(1) overlaps r->1 and r->0: both readable depending on order *)
  let h = [ inv 0 "write" [ 1 ]; inv 1 "read" []; res 1 1; res 0 0 ] in
  Alcotest.(check bool) "r=1 during write ok" true (lin Specs.register h);
  let h = [ inv 0 "write" [ 1 ]; inv 1 "read" []; res 1 0; res 0 0 ] in
  Alcotest.(check bool) "r=0 during write ok" true (lin Specs.register h)

let test_lin_realtime_violation () =
  (* write(1) fully precedes read->0: forbidden *)
  let h = [ inv 0 "write" [ 1 ]; res 0 0; inv 1 "read" []; res 1 0 ] in
  Alcotest.(check bool) "stale read flagged" false (lin Specs.register h)

let test_lin_fig5_anomaly () =
  (* the Fig. 5 inconsistency as a register history: r1=1 then r2=0 *)
  let h =
    [
      inv 0 "write" [ 1 ]; res 0 0;
      inv 0 "read" []; res 0 1;
      inv 0 "read" []; res 0 0;
    ]
  in
  Alcotest.(check bool) "non-monotone reads flagged" false
    (lin Specs.register h)

let test_lin_queue_fifo_violation () =
  let h =
    [
      inv 0 "enq" [ 1 ]; res 0 0;
      inv 0 "enq" [ 2 ]; res 0 0;
      inv 1 "deq" []; res 1 2;
      inv 1 "deq" []; res 1 1;
    ]
  in
  Alcotest.(check bool) "out-of-order dequeue flagged" false (lin Specs.queue h)

let test_lin_pending_completion () =
  (* a pending enq's value is dequeued: checker must complete it *)
  let h = [ inv 0 "enq" [ 7 ]; inv 1 "deq" []; res 1 7 ] in
  Alcotest.(check bool) "pending completed" true (lin Specs.queue h)

let test_lin_pending_omission () =
  (* a pending push never observed: checker must be able to omit it *)
  let h = [ inv 0 "push" [ 7 ]; inv 1 "pop" []; res 1 Spec.absent ] in
  Alcotest.(check bool) "pending omitted" true (lin Specs.stack h)

let test_lin_pending_cannot_rescue () =
  (* a pending write cannot explain a *completed* earlier contradiction:
     read->5 with no write(5) anywhere *)
  let h = [ inv 0 "read" []; res 0 5 ] in
  Alcotest.(check bool) "impossible value flagged" false (lin Specs.register h)

let test_lin_counter_concurrent_incs () =
  (* two overlapping incs both returning 0 is NOT linearizable (FAA) *)
  let h = [ inv 0 "inc" []; inv 1 "inc" []; res 0 0; res 1 0 ] in
  Alcotest.(check bool) "duplicate faa result flagged" false
    (lin Specs.counter h);
  let h = [ inv 0 "inc" []; inv 1 "inc" []; res 0 1; res 1 0 ] in
  Alcotest.(check bool) "distinct results fine" true (lin Specs.counter h)

let test_lin_set_semantics () =
  let h =
    [
      inv 0 "add" [ 2 ]; res 0 1;
      inv 1 "add" [ 2 ]; res 1 1;
    ]
  in
  Alcotest.(check bool) "both adds succeeding flagged" false (lin Specs.set h)

let test_lin_empty_history () =
  Alcotest.(check bool) "empty is linearizable" true (lin Specs.register [])

let test_witness_is_valid () =
  let h =
    [
      inv 0 "enq" [ 1 ]; res 0 0; inv 1 "deq" []; res 1 1;
      inv 0 "deq" []; res 0 Spec.absent;
    ]
  in
  let out =
    match Check.linearizable Specs.queue (History.ops h) with
    | Ok o -> o
    | Error e -> Alcotest.failf "unexpected rejection: %a" Check.pp_error e
  in
  Alcotest.(check bool) "ok" true out.Check.ok;
  Alcotest.(check int) "all completed ops in witness" 3
    (List.length out.Check.witness);
  (* and the witness results replay against the spec *)
  let trace =
    List.map
      (fun (o, r) -> (o.History.name, o.History.args, r))
      out.Check.witness
  in
  Alcotest.(check bool) "replays" true (Spec.conforms Specs.queue trace)

(* ------------------------------------------------------------------ *)
(* Durable wrapper                                                     *)
(* ------------------------------------------------------------------ *)

let test_durable_crash_transparent () =
  (* crash events do not break an otherwise linearizable history *)
  let h =
    [
      inv 0 "write" [ 1 ]; res 0 0; crash 1; inv 0 "read" []; res 0 1;
    ]
  in
  let v = Durable.check Specs.register h in
  Alcotest.(check bool) "durable" true v.Durable.durable;
  Alcotest.(check int) "crash counted" 1 v.Durable.crash_events

let test_durable_detects_loss () =
  (* completed write lost across a crash *)
  let h =
    [ inv 0 "write" [ 1 ]; res 0 0; crash 1; inv 0 "read" []; res 0 0 ]
  in
  Alcotest.(check bool) "loss flagged" false
    (Durable.check Specs.register h).Durable.durable

let test_durable_pending_at_crash_ok () =
  (* write pending at crash; post-crash read sees 0: allowed (omitted) *)
  let h = [ inv 0 "write" [ 1 ]; crash 0; inv 1 "read" []; res 1 0 ] in
  Alcotest.(check bool) "omission allowed" true
    (Durable.check Specs.register h).Durable.durable;
  (* ... and seeing 1 is also allowed (completed) *)
  let h = [ inv 0 "write" [ 1 ]; crash 0; inv 1 "read" []; res 1 1 ] in
  Alcotest.(check bool) "completion allowed" true
    (Durable.check Specs.register h).Durable.durable

let test_durable_ill_formed () =
  let v = Durable.check Specs.register [ res 0 1 ] in
  Alcotest.(check bool) "ill-formed not durable" false v.Durable.durable

(* ------------------------------------------------------------------ *)
(* Oversized histories: typed rejection, not invalid_arg               *)
(* ------------------------------------------------------------------ *)

(* [n] sequential completed writes by thread 0. *)
let long_history n =
  List.concat (List.init n (fun _ -> [ inv 0 "write" [ 1 ]; res 0 0 ]))

let test_too_long_rejected () =
  let n = Check.max_ops + 1 in
  (match Check.linearizable Specs.register (History.ops (long_history n)) with
  | Ok _ -> Alcotest.fail "oversized history accepted"
  | Error (Check.History_too_long { length; max_ops }) ->
      Alcotest.(check int) "reported length" n length;
      Alcotest.(check int) "reported bound" Check.max_ops max_ops);
  (* at the bound it still decides *)
  match
    Check.linearizable Specs.register (History.ops (long_history Check.max_ops))
  with
  | Ok o -> Alcotest.(check bool) "at bound ok" true o.Check.ok
  | Error e -> Alcotest.failf "at-bound rejection: %a" Check.pp_error e

let test_too_long_durable_skipped () =
  let v = Durable.check Specs.register (long_history (Check.max_ops + 1)) in
  Alcotest.(check bool) "undecided, not durable" false v.Durable.durable;
  match v.Durable.skipped with
  | Some (Check.History_too_long _) -> ()
  | _ -> Alcotest.fail "expected a History_too_long skip"

(* ------------------------------------------------------------------ *)
(* Typed corruption and verdict rendering                              *)
(* ------------------------------------------------------------------ *)

let test_corrupt_never_durable () =
  (* a Corrupt response matches no specification result, whatever the
     object: the checker must flag the history *)
  let h =
    [ inv 0 "read" []; History.Res { tid = 0; ret = History.Corrupt } ]
  in
  let o = List.hd (History.ops h) in
  Alcotest.(check bool) "op is corrupt" true (History.is_corrupt o);
  Alcotest.(check (option int)) "no integer result" None (History.ret_int o);
  Alcotest.(check bool) "not durable" false
    (Durable.check Specs.register h).Durable.durable

let test_minus_99_is_an_ordinary_value () =
  (* -99 used to be the harness's corruption sentinel; with the typed
     [Corrupt] result it must behave like any other integer *)
  let h =
    [ inv 0 "write" [ -99 ]; res 0 0; inv 0 "read" []; res 0 (-99) ]
  in
  Alcotest.(check bool) "durable" true
    (Durable.check Specs.register h).Durable.durable

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_pp_verdict_branches () =
  let render v = Fmt.str "%a" Durable.pp_verdict v in
  (* durable *)
  let ok =
    render
      (Durable.check ~provenance:"cfg-42" Specs.register
         [ inv 0 "write" [ 1 ]; res 0 0 ])
  in
  Alcotest.(check bool) "durable branch" true
    (contains ~sub:"durably linearizable" ok);
  Alcotest.(check bool) "provenance shown" true (contains ~sub:"[cfg-42]" ok);
  (* violation: includes the history *)
  let bad =
    render
      (Durable.check Specs.register
         [ inv 0 "write" [ 1 ]; res 0 0; crash 1; inv 0 "read" []; res 0 0 ])
  in
  Alcotest.(check bool) "violation branch" true
    (contains ~sub:"NOT durably linearizable" bad);
  Alcotest.(check bool) "history printed" true (contains ~sub:"history:" bad);
  Alcotest.(check bool) "no provenance marker" false
    (contains ~sub:"[cfg-42]" bad);
  (* skipped *)
  let skipped =
    render
      (Durable.check ~provenance:"cfg-7" Specs.register
         (long_history (Check.max_ops + 1)))
  in
  Alcotest.(check bool) "undecided branch" true
    (contains ~sub:"durability undecided" skipped);
  Alcotest.(check bool) "skip reason" true (contains ~sub:"62" skipped);
  Alcotest.(check bool) "provenance on skip" true
    (contains ~sub:"[cfg-7]" skipped)

let () =
  Alcotest.run "lincheck"
    [
      ( "history",
        [
          Alcotest.test_case "well_formed" `Quick test_well_formed;
          Alcotest.test_case "ops extraction" `Quick test_ops_extraction;
          Alcotest.test_case "strip/count" `Quick test_strip_and_count;
          Alcotest.test_case "ill-formed rejected" `Quick
            test_ops_rejects_ill_formed;
        ] );
      ( "specs",
        [
          Alcotest.test_case "conforms" `Quick test_spec_conforms;
          Alcotest.test_case "absent constant" `Quick
            test_absent_constant_agrees;
          QCheck_alcotest.to_alcotest prop_map_step_matches_sort;
        ] );
      ( "linearizable",
        [
          Alcotest.test_case "concurrent register" `Quick
            test_lin_concurrent_register;
          Alcotest.test_case "real-time violation" `Quick
            test_lin_realtime_violation;
          Alcotest.test_case "fig5 anomaly" `Quick test_lin_fig5_anomaly;
          Alcotest.test_case "queue fifo violation" `Quick
            test_lin_queue_fifo_violation;
          Alcotest.test_case "pending completion" `Quick
            test_lin_pending_completion;
          Alcotest.test_case "pending omission" `Quick test_lin_pending_omission;
          Alcotest.test_case "impossible value" `Quick
            test_lin_pending_cannot_rescue;
          Alcotest.test_case "counter faa" `Quick
            test_lin_counter_concurrent_incs;
          Alcotest.test_case "set add-add" `Quick test_lin_set_semantics;
          Alcotest.test_case "empty" `Quick test_lin_empty_history;
          Alcotest.test_case "witness validity" `Quick test_witness_is_valid;
        ] );
      ( "durable",
        [
          Alcotest.test_case "crash transparent" `Quick
            test_durable_crash_transparent;
          Alcotest.test_case "detects loss" `Quick test_durable_detects_loss;
          Alcotest.test_case "pending at crash" `Quick
            test_durable_pending_at_crash_ok;
          Alcotest.test_case "ill-formed" `Quick test_durable_ill_formed;
          Alcotest.test_case "too-long rejected" `Quick test_too_long_rejected;
          Alcotest.test_case "too-long skipped in durable" `Quick
            test_too_long_durable_skipped;
        ] );
      ( "corrupt & rendering",
        [
          Alcotest.test_case "corrupt never durable" `Quick
            test_corrupt_never_durable;
          Alcotest.test_case "-99 is an ordinary value" `Quick
            test_minus_99_is_an_ordinary_value;
          Alcotest.test_case "pp_verdict branches" `Quick
            test_pp_verdict_branches;
        ] );
    ]
