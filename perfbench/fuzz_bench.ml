(* fuzz-prop1: the repository's two checkers, one after the other, in one
   domain: fixed-seed crash-fault campaigns (Fuzz.Campaign) over four
   transformation profiles, then the Prop-1 sweep (Prop1_bench).  The
   timed calls are Campaign.run, per profile, and the sweep; the traced
   run re-walks the same cells through the public pieces (Gen.gen,
   Workload.run, the oracle, Shrink.minimize) so each is timed on its
   own, checks that the walk reproduces Campaign.run's verdict counts,
   and spans the sweep. *)

open Common
module C = Fuzz.Campaign
module G = Fuzz.Gen
module W = Harness.Workload

let transforms =
  Flit.Registry.[ noflush; alg2_mstore; weakest_lflush; buffered ]

let profiles () = List.map G.profile_of_transform transforms
let cells_per_profile = function Full -> 8000 | Tiny -> 64

let summary_sig (s : C.summary) =
  Printf.sprintf "campaign %s shrunk=%s" (Bench_util.campaign_sig s)
    (digest_hex
       (List.map
          (fun (v : C.violation) ->
            Printf.sprintf "%d %s" v.C.index (W.describe v.C.shrunk))
          s.C.violations))

(* The corpus directory is emptied once per run, not per pass: like a
   user's corpus across campaigns, later passes find their shrunk
   counterexamples already banked and write nothing.  Rewriting hundreds
   of files every pass made the pass time mostly file-system time, which
   varied threefold within a minute here. *)
let campaign ~dir ~cells ~seed =
  List.map
    (fun p ->
      timed (fun () ->
          Spans.within ~layer:"fuzz" "fuzz.campaign" (fun () ->
              C.run ~jobs:1 ~corpus_dir:dir p ~cells ~seed ())))
    (profiles ())

let is_noflush (s : C.summary) =
  s.C.transform_name = Flit.Flit_intf.name Flit.Registry.noflush

(* ---- the traced walk ---------------------------------------------- *)

type acc = {
  mutable cells : int;
  mutable ops : int;  (** recorded invocations of the cells' runs *)
  mutable gen_s : float;
  mutable run_s : float;
  mutable check_s : float;
  mutable shrink_s : float;
  mutable shrink_evals : int;
  mutable skipped : int;
  mutable violations : int;
  stats : Fabric.Stats.t;
  mutable counts : (string * (int * int * int)) list;  (** ok/skipped/viol *)
}

let new_acc () =
  { cells = 0; ops = 0; gen_s = 0.0; run_s = 0.0; check_s = 0.0;
    shrink_s = 0.0; shrink_evals = 0; skipped = 0; violations = 0;
    stats = Fabric.Stats.create (); counts = [] }

(* The profile's oracle on a recorded history, as Campaign.evaluate_run
   asks it. *)
let oracle (p : G.profile) (c : W.config) history =
  let spec = Harness.Objects.spec c.W.kind in
  match p.G.oracle with
  | G.Durable -> (
      let v = Lincheck.Durable.check spec history in
      match v.Lincheck.Durable.skipped with
      | Some _ -> `Skipped
      | None -> if v.Lincheck.Durable.durable then `Ok else `Violation)
  | G.Buffered_cut -> (
      match Lincheck.Buffered.check spec history with
      | v -> if v.Lincheck.Buffered.buffered_durable then `Ok else `Violation
      | exception Invalid_argument _ -> `Skipped)

(* One evaluation inside the shrinker: run, then ask the oracle. *)
let evaluate p c = oracle p c (W.run c).W.history

let count_invocations h =
  List.fold_left
    (fun n e -> match e with Lincheck.History.Inv _ -> n + 1 | _ -> n)
    0 h

(* One profile's cells, phase by phase: every config generated, then
   every workload run, then every oracle asked, then every violation
   shrunk.  Cells are independent and deterministic in (seed, index), so
   the verdicts are Campaign.run's; one span per phase keeps the trace
   small and its overhead negligible. *)
let walk_profile acc p ~cells ~seed =
  let phase ~layer name f =
    let v, s, _ = timed (fun () -> Spans.within ~layer name f) in
    (v, s)
  in
  let configs, gen_s =
    phase ~layer:"fuzz" "fuzz.gen" (fun () ->
        Array.init cells (fun i -> G.gen p (Random.State.make [| seed; i |])))
  in
  let runs, run_s =
    phase ~layer:"fuzz" "harness.workload_run" (fun () -> Array.map W.run configs)
  in
  let verdicts, check_s =
    phase ~layer:"lincheck" "lincheck.cell_check" (fun () ->
        Array.map2 (fun c r -> oracle p c r.W.history) configs runs)
  in
  let (), shrink_s =
    phase ~layer:"fuzz" "fuzz.shrink" (fun () ->
        Array.iteri
          (fun i v ->
            if v = `Violation then begin
              let still_failing c' =
                acc.shrink_evals <- acc.shrink_evals + 1;
                evaluate p c' = `Violation
              in
              ignore (evaluate p (Fuzz.Shrink.minimize ~still_failing configs.(i)))
            end)
          verdicts)
  in
  Array.iter
    (fun r ->
      acc.ops <- acc.ops + count_invocations r.W.history;
      Fabric.Stats.add ~into:acc.stats r.W.stats)
    runs;
  let count x = Array.fold_left (fun n v -> if v = x then n + 1 else n) 0 verdicts in
  acc.cells <- acc.cells + cells;
  acc.gen_s <- acc.gen_s +. gen_s;
  acc.run_s <- acc.run_s +. run_s;
  acc.check_s <- acc.check_s +. check_s;
  acc.shrink_s <- acc.shrink_s +. shrink_s;
  acc.skipped <- acc.skipped + count `Skipped;
  acc.violations <- acc.violations + count `Violation;
  acc.counts <-
    (Flit.Flit_intf.name p.G.transform, (count `Ok, count `Skipped, count `Violation))
    :: acc.counts

let walk ~cells ~seed =
  let acc = new_acc () in
  List.iter (fun p -> walk_profile acc p ~cells ~seed) (profiles ());
  acc

(* ---- the run ------------------------------------------------------ *)

let run (o : opts) : report =
  let dir = Filename.concat out_dir "corpus" in
  let cells = cells_per_profile o.size in
  Bench_util.rm_rf dir;
  let setup_s, input =
    setup_median (fun () ->
        let input = Prop1_bench.inputs (Prop1_bench.domain o.size) in
        (* warm-up: a campaign of 1/8 the cells, a sweep of a smaller domain *)
        ignore (campaign ~dir ~cells:(max 1 (cells / 8)) ~seed:o.seed);
        ignore
          (Prop1_bench.sweep
             (Prop1_bench.inputs (Prop1_bench.warmup_domain o.size)));
        input)
  in
  let total = cells * List.length transforms in
  let tp =
    passes ~seconds:(untraced_seconds o)
      ~light:(fun (camp, (prop, prop_s, _)) ->
        {
          call_s = List.map (fun (_, s, _) -> s) camp @ [ prop_s ];
          main_words = sum (List.map (fun (_, _, w) -> w) camp);
          sim =
            List.map (fun (s, _, _) -> summary_sig s) camp
            @ [ Prop1_bench.stats_sig prop ];
        })
      (fun () ->
        let camp = campaign ~dir ~cells ~seed:o.seed in
        (camp, Prop1_bench.sweep input))
  in
  Bench_util.rm_rf dir;
  let first = List.map (fun (s, _, _) -> s) (fst tp.first)
  and ((failures, st) as prop), _, _ = snd tp.first
  and summaries = tp.summaries in
  let configs = st.Cxl0.Props.sweep_configs in
  let digest = List.map summary_sig first @ [ Prop1_bench.stats_sig prop ] in
  (* the best time of each profile's campaign, summed over the profiles;
     the best sweep *)
  let secs, sweep_s =
    match List.rev (best_calls summaries) with
    | sw :: camp -> (sum camp, sw)
    | [] -> assert false
  in
  let words = List.map (fun s -> s.main_words) summaries in
  let nviol s = List.length s.C.violations in
  let durable_viol =
    List.fold_left
      (fun a s -> if is_noflush s then a else a + nviol s)
      0 first
  in
  let checks =
    List.map
      (fun s ->
        if is_noflush s then
          ( Printf.sprintf "noflush: at least 1 violation (%d)" (nviol s),
            nviol s >= 1 )
        else
          ( Printf.sprintf "%s: 0 violations (%d)" s.C.transform_name (nviol s),
            nviol s = 0 ))
      first
    @ [
        ( Printf.sprintf "prop1: empty failure list (%d failures)"
            (List.length failures),
          failures = [] );
        ( "simulated statistics identical across passes",
          List.for_all (fun s -> s.sim = digest) summaries );
      ]
  in
  let info =
    List.map
      (fun s ->
        Printf.sprintf "%-15s cells attempted=%d ok=%d skipped=%d violations=%d"
          s.C.transform_name s.C.cells s.C.ok s.C.skipped (nviol s))
      first
    @ [
        Printf.sprintf "prop1 start configurations attempted=%d failed=%d"
          configs (List.length failures);
      ]
  in
  let layers, tchecks =
    if not o.trace then ([], [])
    else begin
      let runs =
        Spans.traced_passes ~seconds:(traced_seconds o) (fun () ->
            let w = timed (fun () -> walk ~cells ~seed:o.seed) in
            let _, sweep_s, _ = Prop1_bench.sweep input in
            (w, sweep_s))
      in
      (* the fastest walk's accounts; the fastest traced sweep *)
      let acc, walk_s, _ =
        List.fold_left
          (fun ((_, s, _) as a) ((_, s', _) as b) -> if s' < s then b else a)
          (fst (List.hd runs)) (List.map fst runs)
      in
      let traced_sweep_s = best (List.map snd runs) in
      let per_cell x = x *. 1e9 /. fi acc.cells in
      let agree =
        List.for_all
          (fun s ->
            List.assoc s.C.transform_name acc.counts
            = (s.C.ok, s.C.skipped, nviol s))
          first
      in
      ( [
          m "fuzz.gen_ns_per_cell" "ns/cell" (per_cell acc.gen_s);
          m "fuzz.run_ns_per_cell" "ns/cell" (per_cell acc.run_s);
          m "lincheck.cell_check_ns" "ns/cell" (per_cell acc.check_s);
          m "fuzz.shrink_s" "s" acc.shrink_s;
          m "fuzz.shrink_evals" "count" (fi acc.shrink_evals);
          m "fuzz.skipped_frac" "fraction" (ratio (fi acc.skipped) (fi acc.cells));
          m "fuzz.violations" "count" (fi acc.violations);
          m "trace.overhead" "ratio"
            (ratio (walk_s +. traced_sweep_s) (secs +. sweep_s) -. 1.0);
        ]
        @ fabric_metrics ~per:acc.ops acc.stats
        @ Prop1_bench.explore_metrics st ~traced_s:traced_sweep_s,
        [ ("traced walk reproduces Campaign.run's verdict counts", agree) ] )
    end
  in
  {
    attempted = (total + configs) * List.length summaries;
    failed = (durable_viol + List.length failures) * List.length summaries;
    checks = checks @ tchecks;
    e2e =
      e2e_metrics ~setup_s ~ops:total ~words tp
        ~primary:(fun calls ->
          sum (List.filteri (fun i _ -> i < List.length transforms) calls));
    named =
      [ m "cells_per_s" "cells/s" (ratio (fi total) secs); m "sweep_s" "s" sweep_s ];
    layers;
    digest;
    info;
  }
