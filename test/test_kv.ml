(* The sharded KV service and its open-loop serving engine: shard
   spread, request accounting, run-twice determinism,
   queueing visibility (open-loop latency grows under overload), crash
   behaviour, and end-to-end durability of small serving runs. *)

module K = Harness.Kv
module T = Harness.Traffic
module R = Harness.Runcore

(* ------------------------------------------------------------------ *)
(* Shard mapping                                                       *)
(* ------------------------------------------------------------------ *)

let test_shard_spread () =
  (* the multiplicative hash must scatter the Zipf-hot low keys: on a
     3-machine fabric with 4 shards, keys 1..32 must touch every shard,
     and no shard may own more than half of them *)
  let fab =
    Fabric.create ~seed:1
      (Array.init 3 (fun i -> Fabric.machine (Fabric.default_name i)))
  in
  let flit = Flit.Flit_intf.instantiate Flit.Registry.alg2_mstore fab in
  let sched = Runtime.Sched.create ~seed:1 fab in
  let counts = Array.make 4 0 in
  ignore
    (Runtime.Sched.spawn sched ~machine:0 ~name:"t" (fun ctx ->
         let kv = K.create ctx ~shards:4 ~flit ~home:2 () in
         Alcotest.(check int) "n_shards" 4 (K.n_shards kv);
         for k = 1 to 32 do
           let s = K.shard_of_key kv k in
           Alcotest.(check bool) "shard in range" true (s >= 0 && s < 4);
           counts.(s) <- counts.(s) + 1
         done));
  ignore (Runtime.Sched.run sched);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Fmt.str "shard %d non-empty" i) true (c > 0);
      Alcotest.(check bool) (Fmt.str "shard %d not dominant" i) true (c <= 16))
    counts

(* ------------------------------------------------------------------ *)
(* Serving engine                                                      *)
(* ------------------------------------------------------------------ *)

let small_traffic =
  { T.default_spec with T.sessions = 6; ops_per_session = 4; keyspace = 12;
    rate = 1.0; seed = 3; mix = T.mix_of_string "80:15:5" }

let config ?(traffic = small_traffic) ?(crashes = []) ?(faults = [])
    ?(transform = Flit.Registry.alg2_mstore) () =
  let c = K.default_serve_config ~transform ~traffic in
  { c with K.shards = 3; env = { c.K.env with R.crashes; faults } }

let fingerprint (r : K.serve_result) =
  Fmt.str "served=%d/%d/%d faulted=%d dropped=%d cycles=%d lat=%a/%a/%a"
    r.K.served.(0) r.K.served.(1) r.K.served.(2) r.K.faulted r.K.dropped
    r.K.cycles Obs.Hist.pp r.K.latencies.(0) Obs.Hist.pp r.K.latencies.(1)
    Obs.Hist.pp
    r.K.latencies.(2)

(* serve with history recording on, then check that history *)
let serve_and_check c =
  let c = { c with K.record_history = true } in
  K.check c (K.serve c)

let test_serve_accounting () =
  let r = K.serve (config ()) in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "all requests served" (T.total_ops small_traffic) total;
  Alcotest.(check int) "no faults" 0 r.K.faulted;
  Alcotest.(check int) "no drops" 0 r.K.dropped;
  (* latency histograms hold exactly the completions, per op type *)
  Array.iteri
    (fun i h ->
      Alcotest.(check int)
        (Fmt.str "hist %d matches served" i)
        r.K.served.(i) (Obs.Hist.count h))
    r.K.latencies;
  Alcotest.(check bool) "clock advanced" true (r.K.cycles > 0)

let test_serve_deterministic () =
  let a = K.serve (config ()) and b = K.serve (config ()) in
  Alcotest.(check string) "run-twice identical" (fingerprint a) (fingerprint b);
  let d =
    K.serve { (config ()) with K.traffic = { small_traffic with T.seed = 4 } }
  in
  Alcotest.(check bool) "seed matters" true (fingerprint a <> fingerprint d)

let test_open_loop_queueing () =
  (* same work at a 100x higher offered rate: arrivals bunch up, the
     service cannot keep pace, and the open-loop latency measure
     (completion - arrival) must blow up; the underloaded run's mean
     latency stays near service time *)
  let mean_lat rate =
    let r =
      K.serve (config ~traffic:{ small_traffic with T.rate } ())
    in
    let h = Obs.Hist.create () in
    Array.iter (fun l -> Obs.Hist.merge ~into:h l) r.K.latencies;
    Obs.Hist.mean h
  in
  let slow = mean_lat 0.2 and fast = mean_lat 20.0 in
  Alcotest.(check bool)
    (Fmt.str "queueing visible (%.0f vs %.0f)" slow fast)
    true
    (fast > 2.0 *. slow)

let test_serve_crash_accounting () =
  (* crash a serving machine mid-run without restart: every request is
     still accounted for — served, faulted, or dropped *)
  let crashes =
    [ { R.at = 150; machine = 0; restart_at = 150; recovery_threads = 0;
        recovery_ops = 0 } ]
  in
  let traffic = { small_traffic with T.sessions = 8; ops_per_session = 6 } in
  let r = K.serve (config ~traffic ~crashes ()) in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "conservation" (T.total_ops traffic)
    (total + r.K.faulted + r.K.dropped);
  Alcotest.(check int) "crash recorded in stats" 1 r.K.stats.Fabric.Stats.crashes

let test_serve_history_checked () =
  (* a small crash+fault serving run through the durability checker,
     end to end, for each durable transformation *)
  let crashes =
    [ { R.at = 120; machine = 0; restart_at = 260; recovery_threads = 1;
        recovery_ops = 0 } ]
  in
  let faults =
    [ R.Degrade_link
        { m1 = 0; m2 = 2; nack_prob = 0.15; delay_prob = 0.1;
          delay_cycles = 30 } ]
  in
  let traffic =
    { small_traffic with T.sessions = 4; ops_per_session = 3; keyspace = 6 }
  in
  List.iter
    (fun transform ->
      let v =
        serve_and_check (config ~traffic ~crashes ~faults ~transform ())
      in
      Alcotest.(check bool)
        (Fmt.str "%s durable" (Flit.Flit_intf.name transform))
        true v.Lincheck.Durable.durable;
      Alcotest.(check bool) "checker did not skip" true
        (v.Lincheck.Durable.skipped = None);
      Alcotest.(check bool) "crash in history" true
        (v.Lincheck.Durable.crash_events > 0))
    [ Flit.Registry.alg2_mstore; Flit.Registry.alg3'_weakest ]

let test_serve_history_matches_counts () =
  let r = K.serve { (config ()) with K.record_history = true } in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  (* history = preload puts + served ops, each Inv+Res, crash-free *)
  Alcotest.(check int) "event count"
    (2 * (small_traffic.T.keyspace + total))
    (List.length r.K.history);
  Alcotest.(check bool) "well-formed" true
    (Lincheck.History.well_formed r.K.history)

(* ------------------------------------------------------------------ *)
(* Replication and failover                                            *)
(* ------------------------------------------------------------------ *)

let rconfig ?(traffic = small_traffic) ?(crashes = []) ?(faults = [])
    ?(transform = Flit.Registry.alg3'_weakest) ?(replicas = 2) () =
  let c = config ~traffic ~crashes ~faults ~transform () in
  { c with K.replicas }

(* A chaos storm: [cycles] sequential, non-overlapping crash/restart
   cycles rotating over the machines (every machine homes replicas, so
   each hit lands on shard homes). *)
let storm ?(cycles = 5) ?(first = 150) ?(gap = 200) ?(down = 80) () =
  List.init cycles (fun i ->
      {
        R.at = first + (i * gap);
        machine = i mod 3;
        restart_at = first + (i * gap) + down;
        recovery_threads = 0;
        recovery_ops = 0;
      })

let degraded =
  [ R.Degrade_link
      { m1 = 0; m2 = 1; nack_prob = 0.15; delay_prob = 0.1; delay_cycles = 30 }
  ]

let test_replicated_quiet () =
  (* without crashes, replication must not cost any requests: everything
     is served, availability is 1, and no failover machinery fires *)
  let r = K.serve (rconfig ()) in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "all served" (T.total_ops small_traffic) total;
  Alcotest.(check int) "no timeouts" 0 r.K.timed_out;
  Alcotest.(check int) "no failovers" 0 r.K.failovers;
  Alcotest.(check (float 0.0)) "availability 1" 1.0 r.K.availability;
  let v = serve_and_check (rconfig ()) in
  Alcotest.(check bool) "durable" true v.Lincheck.Durable.durable

let test_unreplicated_unchanged () =
  (* replicas = 1 must be byte-identical to the pre-replication engine:
     pin the fingerprint equality between an explicit replicas = 1 run
     and the default config *)
  let a = K.serve (config ()) in
  let b = K.serve { (config ()) with K.replicas = 1 } in
  Alcotest.(check string) "identical" (fingerprint a) (fingerprint b)

let test_storm_conservation () =
  (* a 5-cycle shard-home crash storm under a degraded link: every
     request still accounted for, the service survives with partial
     availability, and the failover machinery demonstrably fired *)
  let r = K.serve (rconfig ~crashes:(storm ()) ~faults:degraded ()) in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "conservation" (T.total_ops small_traffic)
    (total + r.K.faulted + r.K.timed_out + r.K.dropped);
  Alcotest.(check int) "all crashes landed" 5 r.K.stats.Fabric.Stats.crashes;
  Alcotest.(check bool)
    (Fmt.str "some availability (%.2f)" r.K.availability)
    true
    (r.K.availability > 0.0);
  Alcotest.(check bool) "failover machinery fired" true
    (r.K.failovers + r.K.rejoins > 0)

let test_storm_durable () =
  (* the tentpole claim: under single-home-at-a-time crash storms, the
     replicated service stays *strictly* durably linearizable even for
     transforms whose un-replicated envelope must spare the home
     (Finding F1) — acknowledged writes survive on the backup *)
  List.iter
    (fun transform ->
      let v =
        serve_and_check
          (rconfig ~transform ~crashes:(storm ()) ~faults:degraded ())
      in
      Alcotest.(check bool)
        (Fmt.str "%s durable under storm" (Flit.Flit_intf.name transform))
        true v.Lincheck.Durable.durable;
      Alcotest.(check bool) "crashes in history" true
        (v.Lincheck.Durable.crash_events > 0))
    [ Flit.Registry.alg2_mstore; Flit.Registry.alg3'_weakest ]

(* every counter, the clock, each latency histogram's shape and the
   fabric stats of one run *)
let full_fingerprint r =
  Fmt.str "%s to=%d fo=%d rj=%d hists=%s stats=%s" (fingerprint r)
    r.K.timed_out r.K.failovers r.K.rejoins
    (String.concat "/"
       (Array.to_list (Array.map Bench_util.hist_sig r.K.latencies)))
    (Fabric.Stats.to_json r.K.stats)

let test_storm_deterministic () =
  (* run twice, and once more with history recording on: recording must
     not perturb the run, since cxl0_kv --check checks the history of the
     run it printed *)
  let fp = full_fingerprint in
  let c = rconfig ~crashes:(storm ()) ~faults:degraded () in
  let a = K.serve c in
  let b = K.serve c in
  Alcotest.(check string) "storm run-twice identical" (fp a) (fp b);
  let recorded = K.serve { c with K.record_history = true } in
  Alcotest.(check bool) "history recorded" true (recorded.K.history <> []);
  Alcotest.(check string) "recording history is inert" (fp a) (fp recorded)

let test_recovery_interleavings () =
  (* Sched.restart racing the failover machinery: a fast restart lands
     before the heartbeat timeout promotes a backup (heal-in-place), a
     slow one lands after promotion (heal then re-demotion); both must
     stay durable with every request accounted for *)
  List.iter
    (fun (at, restart_at) ->
      let crashes =
        [ { R.at; machine = 2; restart_at; recovery_threads = 0;
            recovery_ops = 0 } ]
      in
      let v = serve_and_check (rconfig ~crashes ()) in
      Alcotest.(check bool)
        (Fmt.str "restart@%d durable" restart_at)
        true v.Lincheck.Durable.durable;
      let r = K.serve (rconfig ~crashes ()) in
      let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
      Alcotest.(check int) "conservation" (T.total_ops small_traffic)
        (total + r.K.faulted + r.K.timed_out + r.K.dropped))
    [ (180, 200); (180, 1200) ]

let test_no_fibre_leak () =
  (* a crash mid-write-chain plus a restart mid-heal: the run must
     terminate (deadlines bound every wait loop) with zero leaked
     fibres, and the scheduler must report no runnable work left *)
  let fab =
    Fabric.create ~seed:7
      (Array.init 3 (fun i -> Fabric.machine (Fabric.default_name i)))
  in
  let flit = Flit.Flit_intf.instantiate Flit.Registry.alg3'_weakest fab in
  let sched = Runtime.Sched.create ~seed:7 fab in
  let kv_ref = ref None in
  ignore
    (Runtime.Sched.spawn sched ~machine:2 ~name:"init" (fun ctx ->
         let kv =
           K.create ctx ~replicas:2 ~deadline:600 ~failover_timeout:100 ~flit
             ~home:2 ()
         in
         kv_ref := Some kv;
         for m = 0 to 1 do
           ignore
             (Runtime.Sched.spawn ctx.Runtime.Sched.sched ~machine:m
                ~name:(Fmt.str "w%d" m)
                (fun ctx ->
                  for k = 1 to 6 do
                    (try ignore (K.put kv ctx k (k + 10))
                     with Runtime.Ops.Fault _ | K.Unavailable -> ());
                    try ignore (K.get kv ctx k)
                    with Runtime.Ops.Fault _ | K.Unavailable -> ()
                  done))
         done));
  Runtime.Sched.at_step sched 40 (Runtime.Sched.Crash 2);
  Runtime.Sched.at_step sched 70
    (Runtime.Sched.Call
       (fun s ->
         Runtime.Sched.restart s 2;
         ignore
           (Runtime.Sched.spawn s ~machine:2 ~name:"heal" (fun ctx ->
                match !kv_ref with
                | Some kv -> K.heal kv ctx
                | None -> ()))));
  ignore (Runtime.Sched.run sched);
  Alcotest.(check int) "no leaked fibres" 0 (Runtime.Sched.alive sched)

let test_replica_validation () =
  Alcotest.check_raises "replicas > machines"
    (Invalid_argument "Kv.serve: replicas must not exceed the machine count")
    (fun () -> ignore (K.serve { (config ()) with K.replicas = 4 }));
  Alcotest.check_raises "zero replicas"
    (Invalid_argument "Kv.serve: replicas must be positive") (fun () ->
      ignore (K.serve { (config ()) with K.replicas = 0 }));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Kv.serve: rate must be positive") (fun () ->
      ignore
        (K.serve
           { (config ()) with K.traffic = { small_traffic with T.rate = 0.0 } }));
  Alcotest.check_raises "check without history"
    (Invalid_argument "Kv.check: history not recorded") (fun () ->
      ignore (K.check (config ()) (K.serve (config ()))))

(* ------------------------------------------------------------------ *)
(* Request tracing                                                     *)
(* ------------------------------------------------------------------ *)

let traced_serve ?series c =
  let tracer = Obs.Tracer.create ~capacity:(1 lsl 18) ?series () in
  let r = K.serve ~tracer c in
  (r, tracer)

let stormy () = rconfig ~crashes:(storm ()) ~faults:degraded ()

let test_span_conservation () =
  (* every request the engine accounted for has a span with the matching
     terminal mark; requests lost to crashes are at worst Incomplete *)
  let r, tr = traced_serve (stormy ()) in
  Alcotest.(check int) "ring did not wrap" 0 (Obs.Tracer.dropped tr);
  let spans = Obs.Span.assemble tr in
  let count o = List.length (List.filter (fun s -> Obs.Span.outcome s = o) spans) in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "acked spans = served" total (count Obs.Span.Acked);
  Alcotest.(check int) "timed-out spans" r.K.timed_out
    (count Obs.Span.Timed_out);
  Alcotest.(check int) "faulted spans" r.K.faulted (count Obs.Span.Faulted);
  Alcotest.(check bool) "incomplete within dropped" true
    (count Obs.Span.Incomplete <= r.K.dropped);
  (* per op type, acked span count matches the latency histogram *)
  for op = 0 to 2 do
    let acked =
      List.filter
        (fun s -> s.Obs.Span.op = op && Obs.Span.outcome s = Obs.Span.Acked)
        spans
    in
    Alcotest.(check int)
      (Fmt.str "op %d span count" op)
      (Obs.Hist.count r.K.latencies.(op))
      (List.length acked)
  done

let test_span_components_sum () =
  (* the exact-sum identity on a real storm run: every complete span's
     five components sum to its end-to-end latency, cycle for cycle *)
  let _, tr = traced_serve (stormy ()) in
  let spans = Obs.Span.assemble tr in
  let complete = List.filter Obs.Span.complete spans in
  Alcotest.(check bool) "some complete spans" true (complete <> []);
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Fmt.str "s%d.q%d components sum" s.Obs.Span.session s.Obs.Span.seq)
        (Obs.Span.latency s)
        (Array.fold_left ( + ) 0 (Obs.Span.components s)))
    complete;
  (* the storm must actually exercise the failover/retry components *)
  let totals = Array.make Obs.Span.n_components 0 in
  List.iter
    (fun s ->
      Array.iteri
        (fun i v -> totals.(i) <- totals.(i) + v)
        (Obs.Span.components s))
    complete;
  Alcotest.(check bool) "failover-wait attributed" true
    (totals.(Obs.Span.component_index Obs.Span.Failover_wait) > 0)

let test_span_phase_order () =
  (* phase-mark ordering under crash/restart: dispatch first, cycles and
     cumulative counters nondecreasing, terminal mark last if present *)
  let _, tr = traced_serve (stormy ()) in
  let spans = Obs.Span.assemble tr in
  Alcotest.(check bool) "spans assembled" true (spans <> []);
  List.iter
    (fun s ->
      match s.Obs.Span.marks with
      | [] -> Alcotest.fail "empty span"
      | first :: rest ->
          Alcotest.(check bool) "head is dispatch" true
            (first.Obs.Span.phase = Obs.Event.P_dispatch);
          Alcotest.(check bool) "dispatch after arrival" true
            (first.Obs.Span.cycle >= s.Obs.Span.arrival);
          let prev = ref first in
          List.iteri
            (fun i m ->
              let p = !prev in
              Alcotest.(check bool) "cycles nondecreasing" true
                (m.Obs.Span.cycle >= p.Obs.Span.cycle);
              Alcotest.(check bool) "counters nondecreasing" true
                (m.Obs.Span.wait_lock >= p.Obs.Span.wait_lock
                && m.Obs.Span.wait_degraded >= p.Obs.Span.wait_degraded
                && m.Obs.Span.retry >= p.Obs.Span.retry);
              (match m.Obs.Span.phase with
              | Obs.Event.P_ack | Obs.Event.P_timeout | Obs.Event.P_fault ->
                  Alcotest.(check int) "terminal mark is last"
                    (List.length rest - 1) i
              | _ -> ());
              prev := m)
            rest)
    spans

let test_span_determinism () =
  (* the digest folds into --sig: it must be identical run to run *)
  let digest () =
    let _, tr = traced_serve (stormy ()) in
    Obs.Span.digest (Obs.Span.assemble tr)
  in
  Alcotest.(check string) "run-twice identical" (digest ()) (digest ())

let test_tracer_inert_serving () =
  (* attaching a tracer must not perturb the serving run: identical
     counters, histograms and failover activity *)
  let fp r =
    Fmt.str "%s to=%d fo=%d rj=%d" (fingerprint r) r.K.timed_out r.K.failovers
      r.K.rejoins
  in
  let untraced = K.serve (stormy ()) in
  let traced, _ = traced_serve (stormy ()) in
  Alcotest.(check string) "traced = untraced" (fp untraced) (fp traced)

let test_series_conservation () =
  (* the windowed timeline is a partition of the same run: summing the
     windows recovers every engine counter *)
  let series = Obs.Series.create ~window:2000 in
  let r, _ = traced_serve ~series (stormy ()) in
  let rows = Obs.Series.rows series in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 rows in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "acked" total (sum (fun w -> w.Obs.Series.acked));
  Alcotest.(check int) "timed out" r.K.timed_out
    (sum (fun w -> w.Obs.Series.timed_out));
  Alcotest.(check int) "faulted" r.K.faulted
    (sum (fun w -> w.Obs.Series.faulted));
  Alcotest.(check int) "crashes" r.K.stats.Fabric.Stats.crashes
    (sum (fun w -> w.Obs.Series.crashes));
  Alcotest.(check int) "failovers" r.K.failovers
    (sum (fun w -> w.Obs.Series.failovers));
  Alcotest.(check int) "rejoins" r.K.rejoins
    (sum (fun w -> w.Obs.Series.rejoins));
  (* dispatched-but-never-terminated = the final in-flight gauge *)
  let dispatches = sum (fun w -> w.Obs.Series.dispatches) in
  let last = List.nth rows (List.length rows - 1) in
  Alcotest.(check int) "inflight balance"
    (dispatches - total - r.K.timed_out - r.K.faulted)
    last.Obs.Series.inflight;
  (* window indices are contiguous from zero *)
  List.iteri
    (fun i w -> Alcotest.(check int) "contiguous" i w.Obs.Series.index)
    rows

(* ------------------------------------------------------------------ *)
(* Serving pins                                                        *)
(* ------------------------------------------------------------------ *)

(* Pinned values: they move if the servers' idle wait, the claim rule,
   the scheduler's pick sequence or the failover polls change.  The
   low-rate run spends most of its picks on idle servers waiting for
   the next arrival; the storm run on failover polls. *)

let test_low_rate_pin () =
  let r =
    K.serve
      (config
         ~traffic:
           { small_traffic with T.sessions = 32; ops_per_session = 8;
             rate = 0.05 }
         ())
  in
  Alcotest.(check string) "low-rate serve"
    "served=201/39/16 faulted=0 dropped=0 cycles=9985062 \
      lat=n=201 mean=672.5 p50=400 p90=2000 p99=2000 \
      max=2000/n=39 mean=615.9 p50=400 p90=1000 p99=1500 \
      max=1500/n=16 mean=2274.4 p50=1915 p90=7165 p99=7165 \
      max=7165 to=0 fo=0 rj=0 hists=n=201 total=135179 p50=400 \
      p90=2000 p99=2000 max=2000/n=39 total=24019 p50=400 \
      p90=1000 p99=1500 max=1500/n=16 total=36390 p50=1915 \
      p90=7165 p99=7165 max=7165 stats={\"loads_local_cache\":0,\
      \"loads_remote_cache\":0,\"loads_mem\":1169,\"lstores\":0,\
      \"rstores\":0,\"mstores\":151,\"lflushes\":0,\
      \"rflushes\":0,\"faas\":0,\"cass\":28,\
      \"evictions_horizontal\":0,\"evictions_vertical\":0,\
      \"crashes\":0,\"faults_injected\":0,\"retries\":0,\
      \"degraded_ops\":0,\"cycles\":9985062}"
    (full_fingerprint r)

let test_storm_pin () =
  Alcotest.(check string) "storm serve"
    "served=7/0/0 faulted=1 dropped=6 cycles=67720 lat=n=7 \
      mean=37686.3 p50=40982 p90=40982 p99=40982 max=40982/n=0 \
      mean=0.0 p50=0 p90=0 p99=0 max=0/n=0 mean=0.0 p50=0 p90=0 \
      p99=0 max=0 to=10 fo=1 rj=1 hists=n=7 total=263804 \
      p50=40982 p90=40982 p99=40982 max=40982/n=0 total=0 p50=0 \
      p90=0 p99=0 max=0/n=0 total=0 p50=0 p90=0 p99=0 max=0 \
      stats={\"loads_local_cache\":0,\"loads_remote_cache\":0,\
      \"loads_mem\":148,\"lstores\":106,\"rstores\":0,\
      \"mstores\":0,\"lflushes\":0,\"rflushes\":106,\"faas\":68,\
      \"cass\":24,\"evictions_horizontal\":7,\
      \"evictions_vertical\":7,\"crashes\":5,\
      \"faults_injected\":6,\"retries\":3,\"degraded_ops\":0,\
      \"cycles\":67720}"
    (full_fingerprint (K.serve (stormy ())))

(* The storm's waits: every span's cumulative lock and failover waits,
   the attribution totals they feed and the windowed timeline of the
   traced [stormy] run. *)
let test_storm_spans_pin () =
  let series = Obs.Series.create ~window:2000 in
  let _, tr = traced_serve ~series (stormy ()) in
  let spans = Obs.Span.assemble tr in
  Alcotest.(check string) "span digest" "24:5ce244ebbd7d"
    (Obs.Span.digest spans);
  let attrib = Obs.Attrib.of_spans spans in
  Alcotest.(check (list (list int)))
    "attribution totals"
    [ [ 356322; 25651; 0; 13; 41707 ];
      [ 139060; 2203; 3493; 11; 30672 ];
      [ 22476; 0; 0; 0; 8240 ] ]
    (List.init Obs.Attrib.n_ops (fun op ->
         Array.to_list (Obs.Attrib.totals attrib ~op)));
  let rows = Obs.Series.rows series in
  Alcotest.(check (pair int int))
    "series rows, crashes" (34, 5)
    ( List.length rows,
      List.fold_left (fun a w -> a + w.Obs.Series.crashes) 0 rows );
  (* every window's counters and gauges: outage lengths (Unavail) and
     the trusted-replica gauge come from the failover polls *)
  Alcotest.(check string) "series json"
    "459aee6404172201e3f5050d891f3f81"
    (Digest.to_hex (Digest.string (Obs.Series.to_json series)))

(* A storm of longer outages (down 200 of every 450 steps) with a
   40-poll patience (deadline 640) and 16 sessions: requests run out of
   patience waiting on a shard lock (Unavailable without a Kv timeout),
   on a failover read and on a distrusted replica set for a write, and
   a backup is promoted inside a poll. *)
let starved () =
  let traffic =
    { small_traffic with T.sessions = 16; ops_per_session = 6;
      mix = T.mix_of_string "50:50:0" }
  in
  { (rconfig ~traffic ~crashes:(storm ~gap:450 ~down:200 ()) ~faults:degraded
       ())
    with
    K.deadline = 640 }

let test_starved_pin () =
  let r = K.serve (starved ()) in
  Alcotest.(check string) "starved serve"
    "served=16/0/0 faulted=0 dropped=8 cycles=181600 lat=n=16 \
      mean=23034.4 p50=30485 p90=30485 p99=30485 max=30485/n=0 \
      mean=0.0 p50=0 p90=0 p99=0 max=0/n=0 mean=0.0 p50=0 p90=0 \
      p99=0 max=0 to=72 fo=1 rj=1 hists=n=16 total=368551 \
      p50=30485 p90=30485 p99=30485 max=30485/n=0 total=0 p50=0 \
      p90=0 p99=0 max=0/n=0 total=0 p50=0 p90=0 p99=0 max=0 \
      stats={\"loads_local_cache\":0,\"loads_remote_cache\":0,\
      \"loads_mem\":198,\"lstores\":78,\"rstores\":0,\
      \"mstores\":0,\"lflushes\":0,\"rflushes\":78,\"faas\":60,\
      \"cass\":16,\"evictions_horizontal\":7,\
      \"evictions_vertical\":8,\"crashes\":5,\
      \"faults_injected\":8,\"retries\":3,\"degraded_ops\":0,\
      \"cycles\":181600}"
    (full_fingerprint r);
  let series = Obs.Series.create ~window:2000 in
  let _, tr = traced_serve ~series (starved ()) in
  let spans = Obs.Span.assemble tr in
  Alcotest.(check string) "starved span digest" "96:190687791035"
    (Obs.Span.digest spans);
  Alcotest.(check string) "starved series json"
    "3c6cec2dd8b467dc7b768ab4240ee011"
    (Digest.to_hex (Digest.string (Obs.Series.to_json series)));
  let last s = List.nth s.Obs.Span.marks (List.length s.Obs.Span.marks - 1) in
  let timed_out =
    List.filter (fun s -> Obs.Span.outcome s = Obs.Span.Timed_out) spans
  in
  Alcotest.(check int) "timed-out spans" r.K.timed_out (List.length timed_out);
  Alcotest.(check bool) "a lock wait" true
    (List.exists (fun s -> (last s).Obs.Span.wait_lock > 0) timed_out);
  Alcotest.(check bool) "a degraded wait" true
    (List.exists (fun s -> (last s).Obs.Span.wait_degraded > 0) timed_out)

let () =
  Alcotest.run "kv"
    [
      ("shards", [ Alcotest.test_case "spread" `Quick test_shard_spread ]);
      ( "serve",
        [
          Alcotest.test_case "accounting" `Quick test_serve_accounting;
          Alcotest.test_case "deterministic" `Quick test_serve_deterministic;
          Alcotest.test_case "open-loop queueing" `Quick
            test_open_loop_queueing;
          Alcotest.test_case "crash accounting" `Quick
            test_serve_crash_accounting;
          Alcotest.test_case "history well-formed" `Quick
            test_serve_history_matches_counts;
        ] );
      ( "durability",
        [
          Alcotest.test_case "crash+fault serving runs durable" `Quick
            test_serve_history_checked;
        ] );
      ( "replication",
        [
          Alcotest.test_case "quiet run costs nothing" `Quick
            test_replicated_quiet;
          Alcotest.test_case "replicas=1 unchanged" `Quick
            test_unreplicated_unchanged;
          Alcotest.test_case "storm conservation" `Quick
            test_storm_conservation;
          Alcotest.test_case "storm durable" `Quick test_storm_durable;
          Alcotest.test_case "storm deterministic" `Quick
            test_storm_deterministic;
          Alcotest.test_case "recovery interleavings" `Quick
            test_recovery_interleavings;
          Alcotest.test_case "no fibre leak" `Quick test_no_fibre_leak;
          Alcotest.test_case "validation" `Quick test_replica_validation;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "span conservation" `Quick
            test_span_conservation;
          Alcotest.test_case "components sum to latency" `Quick
            test_span_components_sum;
          Alcotest.test_case "phase order under storm" `Quick
            test_span_phase_order;
          Alcotest.test_case "span digest deterministic" `Quick
            test_span_determinism;
          Alcotest.test_case "tracer is inert" `Quick
            test_tracer_inert_serving;
          Alcotest.test_case "series conservation" `Quick
            test_series_conservation;
        ] );
      ( "pins",
        [
          Alcotest.test_case "low-rate serve" `Quick test_low_rate_pin;
          Alcotest.test_case "storm serve" `Quick test_storm_pin;
          Alcotest.test_case "storm spans" `Quick test_storm_spans_pin;
          Alcotest.test_case "starved serve" `Quick test_starved_pin;
        ] );
    ]
