module Make (Elt : Op_sig.ELT) = struct
  type elt = Elt.t
  type state = elt list

  type op =
    | Ins of int * elt
    | Del of int
    | Set of int * elt

  let ins i x = Ins (i, x)
  let del i = Del i
  let set i x = Set (i, x)

  let apply s op =
    let len = List.length s in
    let check_pos name i upper =
      if i < 0 || i > upper then
        invalid_arg (Printf.sprintf "Op_list.apply: %s position %d out of range (len %d)" name i len)
    in
    match op with
    | Ins (i, x) ->
      check_pos "ins" i len;
      let rec insert i = function
        | rest when i = 0 -> x :: rest
        | y :: rest -> y :: insert (i - 1) rest
        | [] -> assert false
      in
      insert i s
    | Del i ->
      check_pos "del" i (len - 1);
      let rec delete i = function
        | _ :: rest when i = 0 -> rest
        | y :: rest -> y :: delete (i - 1) rest
        | [] -> assert false
      in
      delete i s
    | Set (i, x) ->
      check_pos "set" i (len - 1);
      List.mapi (fun j y -> if j = i then x else y) s

  (* The IT matrix.  [a] is incoming, [b] is already applied; the result of
     [transform a b] is a's intention re-expressed on the state after b.
     Ties (equal positions) go to the side named by [tie]. *)
  let transform a ~against:b ~tie =
    match a, b with
    | Ins (i, x), Ins (j, _) ->
      if i < j || (i = j && Side.incoming_wins tie.Side.position) then [ Ins (i, x) ] else [ Ins (i + 1, x) ]
    | Ins (i, x), Del j -> if j < i then [ Ins (i - 1, x) ] else [ Ins (i, x) ]
    | Ins (i, x), Set (_, _) -> [ Ins (i, x) ]
    | Del i, Ins (j, _) -> if j <= i then [ Del (i + 1) ] else [ Del i ]
    | Del i, Del j -> if j < i then [ Del (i - 1) ] else if j = i then [] else [ Del i ]
    | Del i, Set (_, _) -> [ Del i ]
    | Set (i, x), Ins (j, _) -> if j <= i then [ Set (i + 1, x) ] else [ Set (i, x) ]
    | Set (i, x), Del j -> if j < i then [ Set (i - 1, x) ] else if j = i then [] else [ Set (i, x) ]
    | Set (i, x), Set (j, _) ->
      if i = j && not (Side.incoming_wins tie.Side.value) then [] else [ Set (i, x) ]

  (* Adjacent-pair rewriting at equal indices, iterated to a fixpoint:
     insert-then-delete cancels, writes to the same slot collapse into the
     last one.  Only same-index pairs rewrite — anything positional across
     different indices would be state-dependent.  Every rule strictly
     shortens the sequence, so the outer loop terminates. *)
  let compact ops =
    let rec sweep changed acc = function
      | Ins (i, _) :: Del j :: rest when j = i -> sweep true acc rest
      | Ins (i, _) :: Set (j, y) :: rest when j = i -> sweep true acc (Ins (i, y) :: rest)
      | Set (i, _) :: Set (j, y) :: rest when j = i -> sweep true acc (Set (i, y) :: rest)
      | Set (i, _) :: Del j :: rest when j = i -> sweep true acc (Del j :: rest)
      | op :: rest -> sweep changed (op :: acc) rest
      | [] -> (changed, List.rev acc)
    in
    let rec fix ops =
      match sweep false [] ops with
      | false, ops -> ops
      | true, ops -> fix ops
    in
    match ops with [] | [ _ ] -> ops | _ -> fix ops

  (* Positional ops shift each other's indices; no sound skip. *)
  let commutes _ _ = false

  let equal_state = List.equal Elt.equal

  let pp_state ppf s =
    Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Elt.pp) s

  let pp_op ppf = function
    | Ins (i, x) -> Format.fprintf ppf "ins(%d, %a)" i Elt.pp x
    | Del i -> Format.fprintf ppf "del(%d)" i
    | Set (i, x) -> Format.fprintf ppf "set(%d, %a)" i Elt.pp x
end
