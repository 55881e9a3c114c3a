(* The CXL0 stack's benchmark: one workload per run, its output checks,
   and either the end-to-end metrics (untraced) or the per-layer metrics
   (traced) as the last line of standard output, one JSON object.

     cxl0bench --workload kv-ladder --seed 1 --seconds 20 --trace 0

   Workloads: kv-ladder, kv-storm-check, fuzz-prop1.
   See NOTES.md for what each measures and why. *)

open Common

let workloads =
  [
    ("kv-ladder", Kv_bench.run_ladder);
    ("kv-storm-check", Kv_bench.run_storm);
    ("fuzz-prop1", Fuzz_bench.run);
  ]

(* The bounded end-to-end metrics, reported by every workload. *)
let e2e_table =
  [
    ("setup_s", "s");
    ("ops_per_ref_s", "ops/ref-s");
    ("pass_ref_s", "ref-s");
    ("alloc_words_per_op", "words/op");
    ("retained_heap_mb", "MiB");
  ]

(* The end-to-end figures named per workload.  Each applies to some
   workloads only, so none can be a bounded metric; every run prints all
   of them, "n/a" where the workload does not produce one. *)
let named_table =
  [
    ("setup_s", "s");
    ("host_req_per_s", "req/s");
    ("alloc_words_per_req", "words/req");
    ("peak_heap_mb", "MiB");
    ("sim_read_p50_cycles", "cycles");
    ("sim_read_p99_cycles", "cycles");
    ("sim_update_p99_cycles", "cycles");
    ("sim_capacity_ops_per_kcycle", "ops/kcycle");
    ("sim_knee_rate", "ops/kcycle");
    ("availability", "fraction");
    ("check_s", "s");
    ("check_decided", "0/1");
    ("cells_per_s", "cells/s");
    ("sweep_s", "s");
  ]

let span_layers =
  [ "traffic"; "kv"; "hmap"; "fabric"; "lincheck"; "fuzz"; "explore"; "obs"; "bench" ]

(* Every per-layer metric, reported by every traced run; 0 where the
   workload does not exercise the layer. *)
let layer_table =
  List.filter (fun (n, _) -> n <> "setup_s" && n <> "peak_heap_mb") named_table
  @ [ ("sim_read_samples", "count"); ("sim_update_samples", "count") ]
  @ [ ("host.ref_s", "s"); ("host.pass_s", "s") ]
  @ [ ("trace.overhead", "ratio"); ("trace.spans", "count") ]
  @ List.map (fun l -> ("self_s." ^ l, "s")) span_layers
  @ [
      ("traffic.gen_ns_per_req", "ns/req");
      ("kv.serve_s.r0.05", "s");
      ("kv.serve_s.r0.1", "s");
      ("kv.serve_s.r0.2", "s");
      ("kv.serve_s.r2", "s");
      ("kv.serve_s.storm", "s");
      ("kv.engine_est_s.r0.05", "s");
      ("kv.engine_est_s.r0.1", "s");
      ("kv.engine_est_s.r0.2", "s");
      ("kv.engine_est_s.r2", "s");
      ("kv.record_s", "s");
      ("kv.timed_out", "count");
      ("kv.faulted", "count");
      ("kv.dropped", "count");
      ("kv.failovers", "count");
      ("kv.rejoins", "count");
      ("hmap.ns_per_op.alg2-mstore", "ns/op");
      ("hmap.ns_per_op.noflush", "ns/op");
      ("hmap.alloc_words_per_op", "words/op");
      ("flit.ns_per_op", "ns/op");
      ("fabric.prims_per_req", "prims/req");
      ("fabric.flushes_per_req", "flushes/req");
      ("fabric.evictions_per_req", "evictions/req");
      ("fabric.sim_cycles_per_req", "cycles/req");
      ("fabric.crashes", "count");
      ("sched.switches_per_req", "switches/req");
      ("sched.switches_in_ring", "count");
      ("obs.tracer_overhead", "ratio");
      ("obs.events_per_req", "events/req");
      ("obs.dropped", "events");
      ("obs.ring_events", "events");
      ("obs.attrib_coverage", "fraction");
      ("obs.assemble_s", "s");
      ("lincheck.history_ops", "ops");
      ("lincheck.ops_extract_s", "s");
      ("lincheck.search_s", "s");
      ("lincheck.explored", "nodes");
      ("lincheck.cell_check_ns", "ns/cell");
      ("fuzz.gen_ns_per_cell", "ns/cell");
      ("fuzz.run_ns_per_cell", "ns/cell");
      ("fuzz.shrink_s", "s");
      ("fuzz.shrink_evals", "count");
      ("fuzz.skipped_frac", "fraction");
      ("fuzz.violations", "count");
      ("explore.starts", "configs");
      ("explore.states", "states");
      ("explore.transitions", "transitions");
      ("explore.states_per_s", "states/s");
    ]

let usage =
  "cxl0bench --workload NAME --seed N --seconds S --trace 0|1 [--size \
   full|tiny]"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("cxl0bench: " ^ s);
      exit 2)
    fmt

let number v = Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) in
  let trace = ref (-1) and size_arg = ref "full" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measuring budget");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--size", Arg.Set_string size_arg, "full|tiny input size (default full)");
    ]
    (fun a -> fail "unexpected argument %s" a)
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        fail "unknown workload %S; one of: %s" !workload
          (String.concat ", " (List.map fst workloads))
  in
  if !seed < 0 then fail "--seed must be given, >= 0";
  if !seconds <= 0.0 then fail "--seconds must be given, > 0";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let size =
    match !size_arg with
    | "full" -> Full
    | "tiny" -> Tiny
    | s -> fail "unknown size %S (full|tiny)" s
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let o = { seed = !seed; seconds = !seconds; trace = !trace = 1; size } in
  Printf.printf "workload %s seed=%d seconds=%g trace=%d size=%s\n%!" !workload
    o.seed o.seconds !trace !size_arg;
  let r = run o in
  let spans = Spans.all () in
  let self = Spans.self_by_layer spans in
  let traced =
    if not o.trace then []
    else
      m "trace.spans" "count" (fi (List.length spans))
      :: List.map
           (fun l ->
             m ("self_s." ^ l) "s"
               (Option.value ~default:0.0 (List.assoc_opt l self)))
           span_layers
  in
  let all = r.e2e @ r.named @ r.layers @ traced in
  let lookup name = List.find_opt (fun x -> x.name = name) all in
  (* every metric a workload emits must be declared with the same unit *)
  let declared = e2e_table @ named_table @ layer_table in
  let undeclared =
    List.filter
      (fun x -> List.assoc_opt x.name declared <> Some x.unit)
      all
  in
  let nonfinite = List.filter (fun x -> not (Float.is_finite x.value)) all in
  let checks =
    r.checks
    @ [
        ( "every metric declared with its unit"
          ^ String.concat ""
              (List.map (fun x -> " " ^ x.name ^ "[" ^ x.unit ^ "]") undeclared),
          undeclared = [] );
        ( "every metric finite"
          ^ String.concat "" (List.map (fun x -> " " ^ x.name) nonfinite),
          nonfinite = [] );
      ]
  in
  List.iter
    (fun (what, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") what)
    checks;
  List.iter (Printf.printf "info %s\n") r.info;
  (match (lookup "host.ref_s", lookup "host.pass_s") with
  | Some rf, Some ps ->
      Printf.printf "info host reference %s s, pass %s s (medians over the untraced passes)\n"
        (number rf.value) (number ps.value)
  | _ -> ());
  List.iter (Printf.printf "digest %s\n") r.digest;
  Printf.printf "digest-md5 %s\n" (digest_hex r.digest);
  let samples name =
    match lookup name with
    | Some x -> Printf.sprintf " (n=%.0f)" x.value
    | None -> ""
  in
  List.iter
    (fun (name, unit) ->
      match lookup name with
      | Some x ->
          Printf.printf "named %s %s %s%s\n" name (number x.value) unit
            (match name with
            | "sim_read_p50_cycles" | "sim_read_p99_cycles" -> samples "sim_read_samples"
            | "sim_update_p99_cycles" -> samples "sim_update_samples"
            | _ -> "")
      | None -> Printf.printf "named %s n/a %s\n" name unit)
    named_table;
  if o.trace then begin
    let file =
      Filename.concat out_dir
        (Printf.sprintf "spans-%s-seed%d.json" !workload o.seed)
    in
    Spans.write file spans;
    Printf.printf "spans %d written to %s\n" (List.length spans) file;
    List.iter
      (fun l ->
        Printf.printf "self-time %-9s %s s\n" l
          (number (Option.value ~default:0.0 (List.assoc_opt l self))))
      span_layers
  end;
  let table = if o.trace then layer_table else e2e_table in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = match lookup name with Some x -> x.value | None -> 0.0 in
        Printf.printf "metric %s %s %s\n" name (number v) unit;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (if Float.is_finite v then number v else "0")
          unit)
      table
  in
  let correct = List.for_all snd checks in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed (String.concat ", " metrics)
