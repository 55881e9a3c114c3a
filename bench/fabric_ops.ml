(* Fabric data-plane microbenchmark: raw primitive dispatch,
   eviction-ring pressure, and primitives issued through the
   effect-handler scheduler.

     dune exec bench/fabric_ops.exe -- --ops 1000000

   Every section is deterministic in the fixed seed: alongside ops/s it
   computes a signature (a checksum of observed values plus the final
   cycle counter and stats) that must be bit-identical across runs and
   refactors.  [--check] prints only the signatures — CI runs it twice
   and diffs the output, so any nondeterminism or accidental semantic
   drift in the data plane fails the build.  Numbers land in
   BENCH_fabric.json (recorded by hand, min of several runs). *)

module F = Fabric

let seed = 42
let n_machines = 4
let n_locs = 64

let mk ~cache_capacity =
  let f =
    F.create ~seed ~evict_prob:0.0
      (Array.init n_machines (fun i ->
           F.machine ~cache_capacity (F.default_name i)))
  in
  for i = 0 to n_locs - 1 do
    ignore (F.alloc f ~owner:(i mod n_machines))
  done;
  f

(* The operation stream comes from an inline LCG, not [Random]: three
   [Random.State.int] draws per op would cost as much as the primitive
   under test.  Machine, location and opcode are bit-fields of one
   48-bit LCG state update (the multiplier fits OCaml's 63-bit int). *)
let lcg s = ((s * 25214903917) + 11) land 0xFFFF_FFFF_FFFF

(* One primitive drawn from the LCG state; the checksum folds in every
   observed value so reordering or dropping an operation changes the
   signature. *)
let step f s acc =
  let m = (s lsr 18) land (n_machines - 1) in
  let x = (s lsr 24) land (n_locs - 1) in
  match (s lsr 42) land 7 with
  | 0 | 1 | 2 -> (acc * 31) + F.load f m x
  | 3 ->
      F.lstore f m x (acc land 0xff);
      acc + 1
  | 4 ->
      F.rstore f m x (acc land 0xff);
      acc + 2
  | 5 ->
      F.lflush f m x;
      acc + 3
  | 6 ->
      F.rflush f m x;
      acc + 4
  | _ -> (acc * 17) + F.faa f m x 1

let signature f acc = Bench_util.fabric_sig f ~acc

(* Raw primitive dispatch, one call per operation. *)
let bench_raw ~ops ~cache_capacity =
  let f = mk ~cache_capacity in
  let s = ref seed in
  let acc = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to ops do
    s := lcg !s;
    acc := step f !s !acc
  done;
  (Unix.gettimeofday () -. t0, signature f !acc)

(* Primitives issued from scheduler tasks one by one: each op pays the
   effect round-trip and a scheduling point, like transformed objects
   do. *)
let bench_sched ~ops =
  let f = mk ~cache_capacity:16 in
  let sched = Runtime.Sched.create ~seed f in
  let n_tasks = 4 in
  let per_task = ops / n_tasks in
  let acc = ref 0 in
  let t0 = Unix.gettimeofday () in
  for task = 0 to n_tasks - 1 do
    ignore
      (Runtime.Sched.spawn sched ~machine:(task mod n_machines)
         ~name:(Printf.sprintf "b%d" task)
         (fun ctx ->
           let st = ref (lcg (seed + task)) in
           (* rounded down to whole 16-op groups, as in the recorded
              signatures *)
           for _ = 1 to per_task / 16 * 16 do
             st := lcg !st;
             let x = (!st lsr 24) land (n_locs - 1) in
             match (!st lsr 42) land 3 with
             | 0 | 1 -> acc := (!acc * 31) + Runtime.Ops.load ctx x
             | 2 -> Runtime.Ops.lstore ctx x (!acc land 0xff)
             | _ -> Runtime.Ops.rflush ctx x
           done))
  done;
  ignore (Runtime.Sched.run sched);
  (Unix.gettimeofday () -. t0, signature f !acc)

(* capacity 2 with 64 live locations: every insert runs the eviction
   ring, so this section times ring_push/ring_pop and propagation. *)
let bench_evict ~ops = bench_raw ~ops ~cache_capacity:2

let () =
  let ops = ref 1_000_000 in
  let check = ref false in
  let spec =
    [
      ("--ops", Arg.Set_int ops, "N operations per section (default 1000000)");
      ( "--check",
        Arg.Set check,
        " print only the deterministic signatures (CI mode)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fabric data-plane microbenchmark";
  let sections =
    [
      ("raw", fun () -> bench_raw ~ops:!ops ~cache_capacity:16);
      ("evict", fun () -> bench_evict ~ops:!ops);
      ("sched", fun () -> bench_sched ~ops:!ops);
    ]
  in
  let results = List.map (fun (name, f) -> (name, f ())) sections in
  if !check then
    List.iter
      (fun (name, (_, s)) -> Printf.printf "%s: %s\n" name s)
      results
  else begin
    List.iter
      (fun (name, (secs, _)) ->
        Printf.printf "%-8s %8.3fs  %10.0f ops/s\n" name secs
          (float_of_int !ops /. secs))
      results;
    Printf.printf "{ \"ops_per_section\": %d, %s }\n" !ops
      (String.concat ", "
         (List.map
            (fun (name, (secs, _)) ->
              Printf.sprintf "\"%s_ops_per_sec\": %.0f" name
                (float_of_int !ops /. secs))
            results))
  end
