(* The two serving workloads, both on Harness.Kv with alg2-mstore:

   kv-ladder       unreplicated, no crashes or faults, mix b, open loop
                   at four offered rates with the same requests per rung;
   kv-storm-check  2 replicas under a 5-crash storm, mix a, rate 0.2,
                   history recorded and checked by Lincheck.Durable. *)

open Common
module K = Harness.Kv
module T = Harness.Traffic
module R = Harness.Runcore

let transform = Flit.Registry.alg2_mstore
let offered (c : K.serve_config) = T.total_ops c.K.traffic
let served (r : K.serve_result) = Array.fold_left ( + ) 0 r.K.served

let spec ~seed ~sessions ~ops ~rate ~mix =
  { T.default_spec with
    T.sessions; ops_per_session = ops; rate; theta = 0.9; keyspace = 256;
    mix = T.mix_of_string mix; seed }

(* ---- kv-ladder ---------------------------------------------------- *)

let rungs = [ ("r0.05", 0.05); ("r0.1", 0.1); ("r0.2", 0.2); ("r2", 2.0) ]

(* The rung whose latencies are reported: the preload transient (reads
   arriving while the keyspace loads, ~1.6M cycles) is under 1% of its
   reads, so p99 describes steady serving. *)
let latency_rung = "r0.1"
let knee_limit = 100_000

let ladder_configs ~size ~seed =
  let sessions, ops = match size with Full -> (512, 64) | Tiny -> (16, 8) in
  List.map
    (fun (name, rate) ->
      let traffic = spec ~seed ~sessions ~ops ~rate ~mix:"b" in
      (name, rate, K.default_serve_config ~transform ~traffic))
    rungs

(* ---- kv-storm-check ----------------------------------------------- *)

(* The cxl0_kv --storm schedule: [storm] crash/restart cycles rotating
   over the machines, spaced so each sees serving on both sides. *)
let storm_schedule ~storm ~machines seed : R.crash_spec list =
  List.init storm (fun i ->
      let at = 150 + (i * 450) + (seed mod 13) in
      { R.at; machine = i mod machines; restart_at = at + 200;
        recovery_threads = 0; recovery_ops = 0 })

let storm_config ~size ~seed =
  let sessions, ops = match size with Full -> (128, 64) | Tiny -> (16, 8) in
  let traffic = spec ~seed ~sessions ~ops ~rate:0.2 ~mix:"a" in
  let base = K.default_serve_config ~transform ~traffic in
  let machines = base.K.env.R.n_machines in
  { base with
    K.env =
      { base.K.env with
        R.crashes = storm_schedule ~storm:5 ~machines traffic.T.seed };
    replicas = 2;
    record_history = true }

(* ---- simulated statistics ----------------------------------------- *)

let sig_line name (r : K.serve_result) =
  Printf.sprintf
    "kv %s served=%d/%d/%d faulted=%d timed_out=%d dropped=%d failovers=%d \
     rejoins=%d avail=%.6f cycles=%d read:[%s] update:[%s] insert:[%s] \
     stats=%s"
    name r.K.served.(0) r.K.served.(1) r.K.served.(2) r.K.faulted
    r.K.timed_out r.K.dropped r.K.failovers r.K.rejoins r.K.availability
    r.K.cycles
    (Bench_util.hist_sig r.K.latencies.(0))
    (Bench_util.hist_sig r.K.latencies.(1))
    (Bench_util.hist_sig r.K.latencies.(2))
    (Fabric.Stats.to_json r.K.stats)

let capacity (r : K.serve_result) =
  ratio (fi (served r) *. 1000.0) (fi r.K.cycles)

let latency_metrics (r : K.serve_result) =
  let rd = r.K.latencies.(0) and up = r.K.latencies.(1) in
  [
    m "sim_read_p50_cycles" "cycles" (fi (Obs.Hist.p50 rd));
    m "sim_read_p99_cycles" "cycles" (fi (Obs.Hist.p99 rd));
    m "sim_read_samples" "count" (fi (Obs.Hist.count rd));
    m "sim_update_p99_cycles" "cycles" (fi (Obs.Hist.p99 up));
    m "sim_update_samples" "count" (fi (Obs.Hist.count up));
  ]

(* Fabric.Stats counters per offered request, summed over [rs]. *)
let kv_fabric_metrics ~requests (rs : K.serve_result list) =
  let st = Fabric.Stats.create () in
  List.iter (fun r -> Fabric.Stats.add ~into:st r.K.stats) rs;
  fabric_metrics ~per:requests st

let kv_counters (r : K.serve_result) =
  [
    m "kv.timed_out" "count" (fi r.K.timed_out);
    m "kv.faulted" "count" (fi r.K.faulted);
    m "kv.dropped" "count" (fi r.K.dropped);
    m "kv.failovers" "count" (fi r.K.failovers);
    m "kv.rejoins" "count" (fi r.K.rejoins);
  ]

(* ---- layer isolation for the traced run --------------------------- *)

(* Drain the rung's request stream: the traffic layer alone. *)
let drain (c : K.serve_config) =
  Spans.within ~layer:"traffic" "traffic.stream" (fun () ->
      Seq.fold_left (fun n _ -> n + 1) 0 (T.stream c.K.traffic))

(* Replay [reqs] through one Hmap in one scheduled thread, without the
   serving engine: the data path (Hmap → FliT → Ops → fabric) alone.
   Same env, preload and key mapping as Kv.serve; one map instead of the
   service's four shards, so the figure is an estimate of the engine's
   data-path share. *)
let hmap_replay ~flit_t (c : K.serve_config) (reqs : T.request array) =
  let env = c.K.env in
  let fab = Spans.within ~layer:"fabric" "fabric.build" (fun () -> R.build_fabric env) in
  let flit = Flit.Flit_intf.instantiate flit_t fab in
  let sched = Runtime.Sched.create ~seed:((env.R.seed * 7919) + 1) fab in
  let map = ref None in
  (* the preload runs to completion first and is not timed *)
  ignore
    (Runtime.Sched.spawn sched ~machine:0 ~name:"preload" (fun ctx ->
         let h =
           Dstruct.Hmap.create ctx ~pflag:c.K.pflag ?buckets:c.K.buckets ~flit
             ~home:env.R.home ()
         in
         for k = 1 to c.K.traffic.T.keyspace do
           ignore (Dstruct.Hmap.put h ctx k k)
         done;
         map := Some h));
  ignore (Runtime.Sched.run sched);
  let h = Option.get !map in
  ignore
    (Runtime.Sched.spawn sched ~machine:0 ~name:"replay" (fun ctx ->
         Array.iter
           (fun (r : T.request) ->
             let op, args =
               match r.T.op with
               | T.Read -> ("get", [ r.T.key + 1 ])
               | T.Update | T.Insert -> ("put", [ r.T.key + 1; r.T.value ])
             in
             ignore (Dstruct.Hmap.dispatch h ctx op args))
           reqs));
  let (), s, w =
    timed (fun () ->
        Spans.within ~layer:"hmap"
          ("hmap.replay." ^ Flit.Flit_intf.name flit_t)
          (fun () -> ignore (Runtime.Sched.run sched)))
  in
  (s, w)

(* The Obs pass: the program's tracer attached through Kv.serve's public
   [?tracer], at the default ring capacity.  Counts read from the ring
   (scheduler switches) cover only the retained events and are printed
   beside [obs.dropped]; [emitted] covers every event. *)
let obs_pass ~untraced_s (c : K.serve_config) =
  let c = { c with K.record_history = false } in
  let tracer = Obs.Tracer.create () in
  let r, traced_s, _ =
    timed (fun () ->
        Spans.within ~layer:"obs" "obs.serve_traced" (fun () ->
            K.serve ~tracer c))
  in
  let spans, assemble_s, _ =
    timed (fun () ->
        Spans.within ~layer:"obs" "obs.assemble" (fun () ->
            let spans = Obs.Span.assemble tracer in
            ignore (Obs.Attrib.of_spans spans);
            spans))
  in
  (* served requests whose span survived the ring, terminal mark and all *)
  let attributed =
    List.length
      (List.filter (fun s -> Obs.Span.outcome s = Obs.Span.Acked) spans)
  in
  let switches = ref 0 in
  Obs.Tracer.iter
    (function Obs.Event.Switch _ -> incr switches | _ -> ())
    tracer;
  let retained = Obs.Tracer.length tracer in
  let emitted = Obs.Tracer.emitted tracer in
  let req = fi (offered c) in
  let layers =
    [
      m "obs.tracer_overhead" "ratio" (ratio traced_s untraced_s);
      m "obs.events_per_req" "events/req" (ratio (fi emitted) req);
      m "obs.dropped" "events" (fi (Obs.Tracer.dropped tracer));
      m "obs.ring_events" "events" (fi retained);
      m "sched.switches_in_ring" "count" (fi !switches);
      m "sched.switches_per_req" "switches/req"
        (* the switch share of the retained window, scaled to every
           emitted event: exact when obs.dropped is 0 *)
        (ratio (ratio (fi !switches) (fi retained) *. fi emitted) req);
      m "obs.attrib_coverage" "fraction" (ratio (fi attributed) (fi (served r)));
      m "obs.assemble_s" "s" assemble_s;
    ]
  in
  let info =
    [
      Printf.sprintf
        "obs pass: %d events emitted, %d retained, %d dropped; %d scheduler \
         switches in the retained ring; %d of %d served requests attributed"
        emitted retained (Obs.Tracer.dropped tracer) !switches attributed
        (served r);
    ]
  in
  (layers, info)

(* ---- kv-ladder run ------------------------------------------------ *)

type rung_result = {
  name : string;
  rate : float;
  config : K.serve_config;
  result : K.serve_result;
  secs : float;
  words : float;
}

let ladder_pass cfgs =
  List.map
    (fun (name, rate, config) ->
      let result, secs, words =
        timed (fun () ->
            Spans.within ~layer:"kv" ("kv.serve." ^ name) (fun () ->
                K.serve config))
      in
      { name; rate; config; result; secs; words })
    cfgs

let ladder_sig pass = List.map (fun x -> sig_line x.name x.result) pass

let ladder_summary pass =
  {
    call_s = List.map (fun x -> x.secs) pass;
    main_words = sum (List.map (fun x -> x.words) pass);
    sim = ladder_sig pass;
  }

(* What the traced run measures per rung, besides the spanned serve. *)
type rung_layers = {
  serve_s : float;
  drain_s : float;
  replay_s : float;  (** alg2-mstore Hmap replay *)
  replay_w : float;
  noflush_s : float;  (** noflush Hmap replay, r2 only *)
}

let rung_layers (name, _, c) =
  let _, serve_s, _ =
    timed (fun () ->
        Spans.within ~layer:"kv" ("kv.serve." ^ name) (fun () -> K.serve c))
  in
  let _, drain_s, _ = timed (fun () -> drain c) in
  let reqs =
    Spans.within ~layer:"traffic" "traffic.generate" (fun () ->
        T.generate c.K.traffic)
  in
  let replay_s, replay_w = hmap_replay ~flit_t:transform c reqs in
  let noflush_s =
    if name = "r2" then fst (hmap_replay ~flit_t:Flit.Registry.noflush c reqs)
    else 0.0
  in
  { serve_s; drain_s; replay_s; replay_w; noflush_s }

let ladder_layers (o : opts) cfgs ~requests ~untraced_s (first : rung_result list) =
  let runs =
    Spans.traced_passes ~seconds:(traced_seconds o) (fun () ->
        List.map rung_layers cfgs)
  in
  (* per rung, the best of each measure over the traced passes *)
  let per_rung =
    List.map2
      (fun (name, _) xs ->
        let b f = best (List.map f xs) in
        ( name,
          {
            serve_s = b (fun x -> x.serve_s);
            drain_s = b (fun x -> x.drain_s);
            replay_s = b (fun x -> x.replay_s);
            replay_w = b (fun x -> x.replay_w);
            noflush_s = b (fun x -> x.noflush_s);
          } ))
      rungs (columns runs)
  in
  let total f = sum (List.map (fun (_, x) -> f x) per_rung) in
  let r2 = List.assoc "r2" per_rung in
  let n_r2 = fi (offered (let _, _, c = List.nth cfgs 3 in c)) in
  let alg2_ns = r2.replay_s *. 1e9 /. n_r2 in
  let noflush_ns = r2.noflush_s *. 1e9 /. n_r2 in
  let _, _, lat_cfg = List.find (fun (n, _, _) -> n = latency_rung) cfgs in
  let obs, oinfo =
    obs_pass ~untraced_s:(List.assoc latency_rung per_rung).serve_s lat_cfg
  in
  ( [
      m "trace.overhead" "ratio" (ratio (total (fun x -> x.serve_s)) untraced_s -. 1.0);
      m "traffic.gen_ns_per_req" "ns/req"
        (total (fun x -> x.drain_s) *. 1e9 /. fi requests);
      m "hmap.ns_per_op.alg2-mstore" "ns/op" alg2_ns;
      m "hmap.ns_per_op.noflush" "ns/op" noflush_ns;
      m "hmap.alloc_words_per_op" "words/op" (r2.replay_w /. n_r2);
      m "flit.ns_per_op" "ns/op" (alg2_ns -. noflush_ns);
    ]
    @ List.concat_map
        (fun (name, x) ->
          [
            m ("kv.serve_s." ^ name) "s" x.serve_s;
            m ("kv.engine_est_s." ^ name) "s" (x.serve_s -. x.drain_s -. x.replay_s);
          ])
        per_rung
    @ kv_fabric_metrics ~requests (List.map (fun x -> x.result) first)
    @ kv_counters (List.find (fun x -> x.name = latency_rung) first).result
    @ obs,
    oinfo )

let run_ladder (o : opts) : report =
  let setup_s, cfgs =
    setup_median (fun () ->
        let cfgs = ladder_configs ~size:o.size ~seed:o.seed in
        (* warm-up: every rung at 1/8 of its sessions *)
        List.iter
          (fun (_, _, (c : K.serve_config)) ->
            let t = c.K.traffic in
            ignore
              (K.serve
                 { c with
                   K.traffic =
                     { t with T.sessions = max 1 (t.T.sessions / 8) } }))
          cfgs;
        cfgs)
  in
  let requests = List.fold_left (fun a (_, _, c) -> a + offered c) 0 cfgs in
  let tp =
    passes ~seconds:(untraced_seconds o) ~light:ladder_summary (fun () ->
        ladder_pass cfgs)
  in
  let first = tp.first and summaries = tp.summaries in
  (* the best serve time of each rung, summed over the rungs *)
  let serve_s = sum (best_calls summaries) in
  let words = List.map (fun s -> s.main_words) summaries in
  let digest = ladder_sig first in
  let checks =
    List.map
      (fun x ->
        ( Printf.sprintf "%s serves every offered request (%d/%d)" x.name
            (served x.result) (offered x.config),
          served x.result = offered x.config
          && x.result.K.faulted = 0 && x.result.K.timed_out = 0
          && x.result.K.dropped = 0 ))
      first
    @ [
        ( "simulated statistics identical across passes",
          List.for_all (fun s -> s.sim = digest) summaries );
      ]
  in
  let unserved =
    List.fold_left (fun a x -> a + offered x.config - served x.result) 0 first
  in
  let lat = List.find (fun x -> x.name = latency_rung) first in
  let top = List.find (fun x -> x.name = "r2") first in
  let knee =
    List.fold_left
      (fun acc x ->
        if
          Obs.Hist.p99 x.result.K.latencies.(0) <= knee_limit
          && served x.result = offered x.config
        then Float.max acc x.rate
        else acc)
      0.0 first
  in
  let named =
    [
      m "host_req_per_s" "req/s" (ratio (fi requests) serve_s);
      m "alloc_words_per_req" "words/req" (ratio (median words) (fi requests));
    ]
    @ latency_metrics lat.result
    @ [
        m "sim_capacity_ops_per_kcycle" "ops/kcycle" (capacity top.result);
        m "sim_knee_rate" "ops/kcycle" knee;
        m "availability" "fraction"
          (ratio (fi (requests - unserved)) (fi requests));
      ]
  in
  let info =
    List.map
      (fun x ->
        Printf.sprintf
          "%-6s requests attempted=%d failed=%d (timed_out+faulted+dropped)"
          x.name (offered x.config)
          (x.result.K.timed_out + x.result.K.faulted + x.result.K.dropped))
      first
  in
  let layers, linfo =
    if o.trace then ladder_layers o cfgs ~requests ~untraced_s:serve_s first
    else ([], [])
  in
  {
    attempted = requests * List.length summaries;
    failed = unserved * List.length summaries;
    checks;
    e2e =
      e2e_metrics ~setup_s ~ops:requests ~words tp;
    named;
    layers;
    digest;
    info = info @ linfo;
  }

(* ---- kv-storm-check run ------------------------------------------- *)

type storm_pass = {
  res : K.serve_result;
  serve_s : float;
  serve_w : float;
  verdict : Lincheck.Durable.verdict;
  check_s : float;
}

let storm_pass c =
  let res, serve_s, serve_w =
    timed (fun () ->
        Spans.within ~layer:"kv" "kv.serve.storm.record" (fun () -> K.serve c))
  in
  let verdict, check_s, _ =
    timed (fun () ->
        Spans.within ~layer:"lincheck" "lincheck.durable_check" (fun () ->
            Lincheck.Durable.check Lincheck.Specs.map res.K.history))
  in
  { res; serve_s; serve_w; verdict; check_s }

let verdict_name (v : Lincheck.Durable.verdict) =
  match v.Lincheck.Durable.skipped with
  | Some _ -> "undecided"
  | None -> if v.Lincheck.Durable.durable then "durable" else "VIOLATION"

let storm_sig p =
  [
    sig_line "storm" p.res;
    Printf.sprintf "verdict=%s history_events=%d crashes=%d"
      (verdict_name p.verdict)
      (List.length p.res.K.history)
      p.verdict.Lincheck.Durable.crash_events;
  ]

let run_storm (o : opts) : report =
  let setup_s, c =
    setup_median (fun () ->
        let c = storm_config ~size:o.size ~seed:o.seed in
        let t = c.K.traffic in
        (* warm-up: the storm at 1/4 of the sessions, served and checked *)
        ignore
          (storm_pass
             { c with K.traffic = { t with T.sessions = max 1 (t.T.sessions / 4) } });
        c)
  in
  let requests = offered c in
  let tp =
    passes ~seconds:(untraced_seconds o)
      ~light:(fun q ->
        { call_s = [ q.serve_s; q.check_s ]; main_words = q.serve_w; sim = storm_sig q })
      (fun () -> storm_pass c)
  in
  let p = tp.first and summaries = tp.summaries in
  let r = p.res in
  let digest = storm_sig p in
  let failed_req = r.K.timed_out + r.K.faulted + r.K.dropped in
  let checks =
    [
      ( Printf.sprintf "0 < availability < 1 (%.4f)" r.K.availability,
        r.K.availability > 0.0 && r.K.availability < 1.0 );
      ( Printf.sprintf "served %d + faulted %d + timed_out %d + dropped %d = offered %d"
          (served r) r.K.faulted r.K.timed_out r.K.dropped requests,
        served r + failed_req = requests );
      ( Printf.sprintf "durability verdict is durable or undecided (%s)"
          (verdict_name p.verdict),
        verdict_name p.verdict <> "VIOLATION" );
      ( "simulated statistics identical across passes",
        List.for_all (fun s -> s.sim = digest) summaries );
    ]
  in
  let decided = p.verdict.Lincheck.Durable.skipped = None in
  let serve_s, check_s =
    match best_calls summaries with [ s; c ] -> (s, c) | _ -> assert false
  in
  let words = List.map (fun s -> s.main_words) summaries in
  let named =
    [
      m "host_req_per_s" "req/s" (ratio (fi requests) serve_s);
      m "alloc_words_per_req" "words/req" (ratio (median words) (fi requests));
    ]
    @ latency_metrics r
    @ [
        m "availability" "fraction" r.K.availability;
        m "check_s" "s" check_s;
        m "check_decided" "0/1" (if decided then 1.0 else 0.0);
      ]
  in
  let info =
    [
      Printf.sprintf
        "storm requests attempted=%d failed=%d (timed_out %d + faulted %d + \
         dropped %d); verdict %s"
        requests failed_req r.K.timed_out r.K.faulted r.K.dropped
        (verdict_name p.verdict);
    ]
  in
  let layers, linfo =
    if not o.trace then ([], [])
    else begin
      (* per traced pass: serve without the history, the checked pass,
         and the checker's two stages on their own *)
      let one () =
        let off = { c with K.record_history = false } in
        let _, off_s, _ =
          timed (fun () ->
              Spans.within ~layer:"kv" "kv.serve.storm" (fun () -> K.serve off))
        in
        let q = storm_pass c in
        let ops, ops_s, _ =
          timed (fun () ->
              Spans.within ~layer:"lincheck" "lincheck.history_ops" (fun () ->
                  Lincheck.History.ops q.res.K.history))
        in
        let search, search_s, _ =
          timed (fun () ->
              Spans.within ~layer:"lincheck" "lincheck.search" (fun () ->
                  Lincheck.Check.linearizable Lincheck.Specs.map ops))
        in
        let explored =
          match search with Ok o -> o.Lincheck.Check.explored | Error _ -> 0
        in
        ( [ off_s; q.serve_s; q.check_s; ops_s; search_s ],
          (List.length ops, explored) )
      in
      let runs = Spans.traced_passes ~seconds:(traced_seconds o) one in
      let n_ops, explored = snd (List.hd runs) in
      match List.map best (columns (List.map fst runs)) with
      | [ off_s; on_s; on_check_s; ops_s; search_s ] ->
          let obs, oinfo = obs_pass ~untraced_s:off_s c in
          ( [
              m "trace.overhead" "ratio"
                (ratio (on_s +. on_check_s) (serve_s +. check_s) -. 1.0);
              m "kv.serve_s.storm" "s" off_s;
              m "kv.record_s" "s" (on_s -. off_s);
              m "lincheck.history_ops" "ops" (fi n_ops);
              m "lincheck.ops_extract_s" "s" ops_s;
              m "lincheck.search_s" "s" search_s;
              m "lincheck.explored" "nodes" (fi explored);
            ]
            @ kv_counters r
            @ kv_fabric_metrics ~requests [ r ]
            @ obs,
            oinfo )
      | _ -> assert false
    end
  in
  {
    attempted = requests * List.length summaries;
    failed = (if verdict_name p.verdict = "VIOLATION" then requests else 0);
    checks;
    e2e =
      e2e_metrics ~setup_s ~ops:requests ~primary:List.hd ~words tp;
    named;
    layers;
    digest;
    info = info @ linfo;
  }
