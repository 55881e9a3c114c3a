(* The Proposition 1 sweep (Cxl0.Props on the packed explorer), run as
   part of the fuzz-prop1 workload: non-volatile machines, default
   reductions, one domain.  The domain is fixed, so the seed changes
   nothing here. *)

open Common

(* 2 machines, 2 locations, 3 values: 900 configurations *)
let domain = function Full -> (2, 2, 3) | Tiny -> (2, 1, 2)

(* the set-up's warm-up sweep *)
let warmup_domain = function Full -> (2, 1, 3) | Tiny -> (2, 1, 2)

let inputs (n, locs, vals) =
  ( Cxl0.Machine.uniform ~persistence:Cxl0.Machine.Non_volatile n,
    List.init locs (fun i -> Cxl0.Loc.v ~owner:(i mod n) (i / n)),
    List.init vals Fun.id )

let sweep (sys, locs, vals) =
  timed (fun () ->
      Spans.within ~layer:"explore" "explore.sweep" (fun () ->
          Cxl0.Props.check_exhaustive_stats ~jobs:1 sys ~locs ~vals))

let stats_sig ((failures, st) : Cxl0.Props.failure list * Cxl0.Props.sweep_stats) =
  Printf.sprintf "prop1 failures=%d configs=%d starts=%d states=%d transitions=%d"
    (List.length failures) st.Cxl0.Props.sweep_configs st.Cxl0.Props.sweep_starts
    st.Cxl0.Props.sweep_states st.Cxl0.Props.sweep_transitions

(* The explore layer's metrics; [traced_s] is the best traced sweep. *)
let explore_metrics (st : Cxl0.Props.sweep_stats) ~traced_s =
  [
    m "explore.starts" "configs" (fi st.Cxl0.Props.sweep_starts);
    m "explore.states" "states" (fi st.Cxl0.Props.sweep_states);
    m "explore.transitions" "transitions" (fi st.Cxl0.Props.sweep_transitions);
    m "explore.states_per_s" "states/s"
      (ratio (fi st.Cxl0.Props.sweep_states) traced_s);
  ]
