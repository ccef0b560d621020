module Make (V : Op_sig.ELT) = struct
  type state = V.t
  type op = Assign of V.t

  let assign v = Assign v
  let apply _ (Assign v) = v

  let transform a ~against:b ~tie =
    match (a, b) with
    (* identical idempotent intentions never conflict (mirrors Op_map) *)
    | Assign va, Assign vb when V.equal va vb -> [ a ]
    | Assign _, Assign _ -> if Side.incoming_wins tie.Side.value then [ a ] else []

  (* Only the last assignment of a sequential journal is observable. *)
  let compact ops = match List.rev ops with [] | [ _ ] -> ops | last :: _ -> [ last ]
  let commutes (Assign va) (Assign vb) = V.equal va vb

  let equal_state = V.equal
  let pp_state = V.pp
  let pp_op ppf (Assign v) = Format.fprintf ppf "assign(%a)" V.pp v
end
