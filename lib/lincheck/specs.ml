(** Sequential specifications of the objects in [lib/dstruct].

    Conventions (shared with the implementations):
    - unit-returning operations return [0];
    - "empty/missing" results are {!Spec.absent} ([-1]);
    - payload values are positive. *)

(** Read/write register: ["write" [v] -> 0], ["read" [] -> current]. *)
module Register : Spec.S = struct
  type state = int

  let name = "register"
  let init = 0

  let step s op args =
    match (op, args) with
    | "write", [ v ] -> [ (0, v) ]
    | "read", [] -> [ (s, s) ]
    | _ -> []

  let equal = Int.equal
  let hash = Hashtbl.hash
end

(** Monotonic counter: ["inc" [] -> previous value], ["get" [] -> value]. *)
module Counter : Spec.S = struct
  type state = int

  let name = "counter"
  let init = 0

  let step s op args =
    match (op, args) with
    | "inc", [] -> [ (s, s + 1) ]
    | "get", [] -> [ (s, s) ]
    | _ -> []

  let equal = Int.equal
  let hash = Hashtbl.hash
end

(** LIFO stack: ["push" [v] -> 0], ["pop" [] -> top | absent]. *)
module Stack : Spec.S = struct
  type state = int list
  (* top first *)

  let name = "stack"
  let init = []

  let step s op args =
    match (op, args, s) with
    | "push", [ v ], _ -> [ (0, v :: s) ]
    | "pop", [], [] -> [ (Spec.absent, []) ]
    | "pop", [], top :: rest -> [ (top, rest) ]
    | _ -> []

  let equal = ( = )
  let hash = Hashtbl.hash
end

(** FIFO queue: ["enq" [v] -> 0], ["deq" [] -> head | absent]. *)
module Queue : Spec.S = struct
  type state = int list
  (* head first *)

  let name = "queue"
  let init = []

  let step s op args =
    match (op, args, s) with
    | "enq", [ v ], _ -> [ (0, s @ [ v ]) ]
    | "deq", [], [] -> [ (Spec.absent, []) ]
    | "deq", [], h :: rest -> [ (h, rest) ]
    | _ -> []

  let equal = ( = )
  let hash = Hashtbl.hash
end

(** Integer set: ["add"/"remove" [v] -> 1 if changed else 0],
    ["contains" [v] -> 1/0]. *)
module Set_ : Spec.S = struct
  type state = int list
  (* sorted *)

  let name = "set"
  let init = []

  let mem v s = List.mem v s
  let add v s = List.sort_uniq compare (v :: s)
  let remove v s = List.filter (fun x -> x <> v) s

  let step s op args =
    match (op, args) with
    | "add", [ v ] -> [ ((if mem v s then 0 else 1), add v s) ]
    | "remove", [ v ] -> [ ((if mem v s then 1 else 0), remove v s) ]
    | "contains", [ v ] -> [ ((if mem v s then 1 else 0), s) ]
    | _ -> []

  let equal = ( = )
  let hash = Hashtbl.hash
end

(* The map's state: an assoc list sorted by key, keys unique.  [put]
   inserts in place, building the same list a full sort would.  The
   step is exposed on the concrete state for the differential test
   against that sort. *)
let rec map_put k v = function
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | ((k', _) as b) :: rest when k' < k -> b :: map_put k v rest
  | s -> (k, v) :: s

let map_step s op args =
  match (op, args) with
  | "put", [ k; v ] -> [ (0, map_put k v s) ]
  | "get", [ k ] ->
      [ ((match List.assoc_opt k s with Some v -> v | None -> Spec.absent), s) ]
  | "del", [ k ] ->
      [ ((if List.mem_assoc k s then 1 else 0), List.remove_assoc k s) ]
  | _ -> []

(** Key-value map: ["put" [k; v] -> 0], ["get" [k] -> v | absent],
    ["del" [k] -> 1 if present else 0]. *)
module Map_ : Spec.S = struct
  type state = (int * int) list

  let name = "map"
  let init = []
  let step = map_step
  let equal = ( = )
  let hash = Hashtbl.hash
end

(** Append-only log: ["append" [v] -> index], ["read" [i] -> v | absent],
    ["size" [] -> length]. *)
module Log : Spec.S = struct
  type state = int list
  (* oldest first *)

  let name = "log"
  let init = []

  let step s op args =
    match (op, args) with
    | "append", [ v ] -> [ (List.length s, s @ [ v ]) ]
    | "read", [ i ] ->
        [
          ( (if i >= 0 && i < List.length s then List.nth s i else Spec.absent),
            s );
        ]
    | "size", [] -> [ (List.length s, s) ]
    | _ -> []

  let equal = ( = )
  let hash = Hashtbl.hash
end

let register : Spec.t = (module Register)
let counter : Spec.t = (module Counter)
let stack : Spec.t = (module Stack)
let queue : Spec.t = (module Queue)
let set : Spec.t = (module Set_)
let map : Spec.t = (module Map_)
let log : Spec.t = (module Log)
