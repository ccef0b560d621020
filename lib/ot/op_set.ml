module Make (Elt : Op_sig.ORDERED_ELT) = struct
  module Elt_set = Set.Make (Elt)

  type state = Elt_set.t

  type op =
    | Add of Elt.t
    | Remove of Elt.t

  let add x = Add x
  let remove x = Remove x

  let apply s = function
    | Add x -> Elt_set.add x s
    | Remove x -> Elt_set.remove x s

  let transform a ~against:b ~tie =
    match a, b with
    | Add x, Remove y | Remove x, Add y ->
      if Elt.compare x y = 0 && not (Side.incoming_wins tie.Side.value) then [] else [ a ]
    | Add _, Add _ | Remove _, Remove _ -> [ a ]

  let elt_of = function Add x -> x | Remove x -> x

  (* Adds and removes of the same element overwrite each other: only the
     last op per element is observable (add/remove cancellation is the
     two-op case). *)
  let compact = function
    | ([] | [ _ ]) as ops -> ops
    | ops ->
      let seen = ref Elt_set.empty in
      List.fold_left
        (fun acc op ->
          let x = elt_of op in
          if Elt_set.mem x !seen then acc
          else begin
            seen := Elt_set.add x !seen;
            op :: acc
          end)
        [] (List.rev ops)

  let commutes a b =
    Elt.compare (elt_of a) (elt_of b) <> 0
    || (match (a, b) with
       | Add _, Add _ | Remove _, Remove _ -> true
       | Add _, Remove _ | Remove _, Add _ -> false)

  let equal_state = Elt_set.equal

  let pp_state ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Elt.pp)
      (Elt_set.elements s)

  let pp_op ppf = function
    | Add x -> Format.fprintf ppf "add(%a)" Elt.pp x
    | Remove x -> Format.fprintf ppf "remove(%a)" Elt.pp x
end
