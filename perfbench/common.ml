(* Shared pieces of the benchmark: options, clocks, allocation counters,
   statistics, metric records and the report every workload returns. *)

type size = Full | Tiny

type opts = {
  seed : int;
  seconds : float;  (** measuring budget of one run *)
  trace : bool;
  size : size;
}

(* Scratch files and span files, inside the checkout. *)
let out_dir = ".perfbench-out"

let now = Unix.gettimeofday

(* Minor words allocated by this domain so far. *)
let minor_words () = Gc.minor_words ()

let words_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.0
let peak_heap_mb () = words_mb (Gc.quick_stat ()).Gc.top_heap_words
let heap_mb () = words_mb (Gc.quick_stat ()).Gc.heap_words

(* [timed f] — [(f (), wall seconds, minor words)]. *)
let timed f =
  let w0 = minor_words () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  (v, t1 -. t0, minor_words () -. w0)

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* The fastest of one call's timings over a run's passes, for the wall
   figures: the least disturbed pass on a host whose speed drifts. *)
let best = List.fold_left Float.min infinity

(* [columns passes] — per-pass lists of per-call records, regrouped as
   per-call lists over the passes. *)
let rec columns = function
  | [] | [] :: _ -> []
  | rows -> List.map List.hd rows :: columns (List.map List.tl rows)

(* Repeat [f] until [seconds] have passed since the first call, at least
   [min] times; the results in call order. *)
let repeat ?(min = 1) ~seconds f =
  let t0 = now () in
  let rec go i acc =
    if i >= min && now () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f () :: acc)
  in
  go 0 []

(* A traced run splits its budget: half untraced passes, the reference
   for the tracing overhead, half traced. *)
let untraced_seconds o = if o.trace then o.seconds /. 2.0 else o.seconds
let traced_seconds o = o.seconds /. 2.0

(* What a timed pass leaves behind: the seconds of each of its calls, in
   call order; the minor words its main calls allocated; its simulation
   digest. *)
type pass_summary = { call_s : float list; main_words : float; sim : string list }

(* Each call's best seconds over the passes. *)
let best_calls summaries =
  List.map best (columns (List.map (fun s -> s.call_s) summaries))

let sum = List.fold_left ( +. ) 0.0

(* ---- the reference computation ---------------------------------- *)

(* Host speed on the shared machines this runs on drifts by tens of
   percent over minutes, so two 20 s runs of the same code can differ by
   that much however the passes inside a run are summarised.  The bounded
   host metrics are therefore in reference seconds: a pass's seconds
   times [ref_nominal_s] over the mean time of a fixed computation run
   right before and right after the pass.  The reference is the
   benchmark's own code, not the program's, so a change to the program
   moves the passes and not the reference; a slow spell of the host
   moves both.  Wall seconds are still reported, as the named figures. *)

let ref_nominal_s = 0.1

(* A fixed computation that allocates as the program's passes do:
   short lists built and folded, and short-lived tuples.  Allocation is
   what the host's drift slows most here: of a few candidate kernels
   timed beside a Prop-1 sweep (arithmetic, scattered memory reads and
   writes, allocation), allocation tracked its run-to-run swings best.
   Everything it allocates dies young, so the major heap, and with it
   the heap metrics, stays the program's. *)
let reference_kernel () =
  let acc = ref 0 in
  for _ = 1 to 1_600 do
    let l = List.init 2_000 (fun i -> (i, !acc)) in
    acc := List.fold_left (fun a (x, _) -> a + x) !acc l
  done;
  for i = 1 to 16_000_000 do
    acc := !acc + fst (Sys.opaque_identity (i, !acc))
  done;
  !acc

(* Seconds of one reference computation.  A full major collection
   first, untimed, so the collector's work during the reference does
   not depend on what the previous pass left behind. *)
let reference () =
  Gc.full_major ();
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_kernel ()));
  now () -. t0

(* Run [f] [n] times, timing each, with the reference computation
   before the first run and after every run; the median of the runs'
   times in reference seconds, and the last value.  The set-up of a run:
   its time is reported as [setup_s]. *)
let setup_median ?(n = 5) f =
  let rec go i r0 acc last =
    if i = n then (median acc, Option.get last)
    else
      let v, s, _ = timed f in
      let r1 = reference () in
      go (i + 1) r1 ((s *. ref_nominal_s /. ((r0 +. r1) /. 2.0)) :: acc) (Some v)
  in
  go 0 (reference ()) [] None

(* The timed passes of an untraced run: [pass] repeated for [seconds],
   at least twice, with the reference computation before the first
   pass and after every pass.  The first result is kept whole and the
   rest only as [light] summaries, so the heap does not grow with the
   number of passes a fast host fits in.  [refs] holds, per pass, the
   mean of the reference times around it.  After the first pass,
   [peak_mb] is the top heap and [retained_mb] the major heap after a
   full collection, with the pass's results still held. *)
type 'a timed_passes = {
  first : 'a;
  summaries : pass_summary list;
  refs : float list;
  peak_mb : float;
  retained_mb : float;
}

let passes ~seconds ~light pass =
  let t0 = now () in
  let r0 = reference () in
  let first = pass () in
  let peak_mb = peak_heap_mb () in
  Gc.full_major ();
  let retained_mb = heap_mb () in
  let r1 = reference () in
  let rest =
    repeat ~min:1 ~seconds:(seconds -. (now () -. t0)) (fun () ->
        let s = light (pass ()) in
        (s, reference ()))
  in
  let rec around prev = function
    | [] -> []
    | r :: rs -> ((prev +. r) /. 2.0) :: around r rs
  in
  { first;
    summaries = light first :: List.map fst rest;
    refs = around r0 (r1 :: List.map snd rest);
    peak_mb;
    retained_mb }

(* Per pass, the seconds [pick] takes from its calls, in reference
   seconds; their median over the passes. *)
let ref_seconds ?(pick = sum) tp =
  median
    (List.map2
       (fun s r -> pick s.call_s *. ref_nominal_s /. r)
       tp.summaries tp.refs)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

type report = {
  attempted : int;  (** operations in the timed passes *)
  failed : int;     (** operations whose outcome failed a check *)
  checks : (string * bool) list;  (** output checks, in order *)
  e2e : metric list;
      (** the bounded end-to-end metrics (untraced runs), and the wall
          figures behind them ([host_metrics], per-layer) *)
  named : metric list;
      (** the workload's own end-to-end figures, under their
          workload-specific names (both runs) *)
  layers : metric list;  (** per-layer metrics (traced runs) *)
  digest : string list;  (** every simulated statistic, one line each *)
  info : string list;    (** free-form lines for the reader *)
}

(* The host's speed over the untraced passes: the median reference
   time, and the passes' median wall seconds.  Per-layer, unbounded. *)
let host_metrics tp =
  [
    m "host.ref_s" "s" (median tp.refs);
    m "host.pass_s" "s" (median (List.map (fun s -> sum s.call_s) tp.summaries));
  ]

(* The generic end-to-end metrics every workload reports.  [ops] is the
   workload's unit of work per pass (requests, cells, start
   configurations); [primary] picks, from a pass's call seconds, those
   of its calls into the workload's main layer (all of them by default),
   and [pass_ref_s] covers all its timed calls; both in reference
   seconds, the median over the passes.  [words] are the minor words the
   main calls allocated, per pass. *)
let e2e_metrics ?primary ~setup_s ~ops ~words tp =
  [
    m "setup_s" "s" setup_s;
    m "ops_per_ref_s" "ops/ref-s" (ratio (fi ops) (ref_seconds ?pick:primary tp));
    m "pass_ref_s" "ref-s" (ref_seconds tp);
    m "alloc_words_per_op" "words/op" (ratio (median words) (fi ops));
    m "retained_heap_mb" "MiB" tp.retained_mb;
    m "peak_heap_mb" "MiB" tp.peak_mb;
  ]
  @ host_metrics tp

(* The fabric layer's counters, per request (kv) or per recorded
   operation (fuzz). *)
let fabric_metrics ~per (st : Fabric.Stats.t) =
  let per x = ratio (fi x) (fi per) in
  let open Fabric.Stats in
  [
    m "fabric.prims_per_req" "prims/req"
      (per (loads st + stores st + flushes st + st.faas + st.cass));
    m "fabric.flushes_per_req" "flushes/req" (per (flushes st));
    m "fabric.evictions_per_req" "evictions/req" (per (evictions st));
    m "fabric.sim_cycles_per_req" "cycles/req" (per st.cycles);
    m "fabric.crashes" "count" (fi st.crashes);
  ]

let digest_hex lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
