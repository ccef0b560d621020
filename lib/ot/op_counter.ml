type state = int
type op = Add of int

let add n = Add n
let apply s (Add n) = s + n
let transform a ~against:_ ~tie:_ = [ a ]

let compact = function
  | ([] | [ _ ]) as ops -> ops
  | ops ->
    let total = List.fold_left (fun acc (Add n) -> acc + n) 0 ops in
    if total = 0 then [] else [ Add total ]

(* Adds commute with everything: transform is the identity both ways. *)
let commutes _ _ = true

let equal_state = Int.equal
let pp_state = Format.pp_print_int
let pp_op ppf (Add n) = Format.fprintf ppf "add(%d)" n
