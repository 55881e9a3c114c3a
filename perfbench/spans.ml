(* The traced run's span recorder.  A span wraps one call from the
   benchmark into a layer's public function: name, layer, start, end and
   the enclosing span.  Nothing inside the program is instrumented, so a
   span's self time (its duration minus the time its child spans cover)
   is the host time of the called layer and everything below it that no
   nested span claims.  Spans stay in memory until [write]. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let finished = ref []
let open_ = ref []
let next_id = ref 0

(* [within ~layer name f] — run [f], recording a span when tracing is
   on.  Untraced runs pay one reference test. *)
let within ~layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ with p :: _ -> p | [] -> -1 in
    open_ := id :: !open_;
    let t0 = Common.now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Common.now () in
        open_ := List.tl !open_;
        finished := { id; parent; name; layer; t0; t1 } :: !finished)
  end

(* The traced passes of a run: [f] repeated for [seconds], at least
   once, with tracing on, each pass inside a root span whose self time is
   the benchmark's own time between layer calls. *)
let traced_passes ~seconds f =
  enabled := true;
  Common.repeat ~min:1 ~seconds (fun () ->
      within ~layer:"bench" "bench.traced_pass" f)

let all () = List.rev !finished

(* Self time of every span: its duration minus its direct children's.
   Children run strictly inside their parent (calls nest), so the
   difference is the time no child covers. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* Summed self seconds per layer, in first-seen order. *)
let self_by_layer spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.layer with
      | None ->
          order := s.layer :: !order;
          Hashtbl.replace tbl s.layer self
      | Some v -> Hashtbl.replace tbl s.layer (v +. self))
    (self_times spans);
  List.rev_map (fun l -> (l, Hashtbl.find tbl l)) !order

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first span), loadable in Perfetto. *)
let write file spans =
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity spans in
  let oc = open_out file in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name s.layer
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent)
    spans;
  output_string oc "]}\n";
  close_out oc
