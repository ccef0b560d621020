(* The output checks every round runs.  Each takes the observed values and
   returns a named verdict; the benchmark's tests feed them deliberately
   wrong outputs to show each one can fail. *)

let check = Outcome.check

(* collab-*: no client got a Nack or an undecodable reply. *)
let no_failures failures =
  check "no_client_failed" (failures = [])
    (String.concat "; " (List.map (fun (c, why) -> c ^ ": " ^ why) failures))

(* collab-*: every op an editor placed was acked inside a batch. *)
let ops_committed ~placed ~committed =
  check "ops_committed_eq_placed" (placed = committed)
    (Printf.sprintf "placed %d ops, %d committed" placed committed)

(* collab-*: every flushed batch was merged exactly once. *)
let batches_merged ~flushed ~merged =
  check "batches_flushed_eq_merged" (flushed = merged)
    (Printf.sprintf "flushed %d batches, shards merged %d" flushed merged)

(* collab-*: [views] is (client, view digest, its shard's digest). *)
let converged views =
  let bad = List.filter (fun (_, v, s) -> not (String.equal v s)) views in
  check "views_equal_shards" (bad = [] && views <> [])
    (match bad with
    | (c, _, _) :: _ -> Printf.sprintf "%d views differ from their shard (first: %s)" (List.length bad) c
    | [] -> "no views")

(* collab-*: the session reached quiescence before its tick budget. *)
let quiesced ~ticks ~max_ticks =
  check "quiesced" (ticks < max_ticks) (Printf.sprintf "still busy after %d ticks" ticks)

(* spawn-sim: every message was processed exactly [ttl] times. *)
let hops ~expected ~processed =
  check "hops_eq_messages_x_ttl" (expected = processed)
    (Printf.sprintf "expected %d hops, processed %d" expected processed)

(* spawn-sim: the processed (host, payload) multiset equals the lock-based
   reference's. *)
let event_digest ~reference ~observed =
  check "event_digest_eq_conventional" (String.equal reference observed)
    (Printf.sprintf "event digest %s, conventional %s" observed reference)

(* Across the rounds of one invocation: [values] are one field per round. *)
let same_across name values =
  match values with
  | [] -> check name false "no rounds"
  | v :: rest ->
    let bad = List.filter (fun x -> not (String.equal x v)) rest in
    check name (bad = []) (Printf.sprintf "%d of %d rounds differ" (List.length bad) (List.length values))
