(* The benchmark's own tests: every output check fails on a deliberately
   wrong output and passes on the real one, and small-scale reference runs
   agree with the benchmark's workloads.

     dune build ./perfbench/selftest.exe && ./_build/default/perfbench/selftest.exe

   Prints one line per test; exits 1 if any failed.  run.py's cross-round
   checks are tested by perfbench/selftest.py, which also runs this. *)

open Perfbench_core
module Ws = Sm_mergeable.Workspace
module R = Sm_core.Runtime

let failures = ref 0

let expect name cond =
  Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") name;
  if not cond then incr failures

let ok (c : Outcome.check) = c.ok

let collab ?(cfg = Collab.small) seed = Collab.run cfg ~seed

let views svc clients =
  Array.to_list clients
  |> List.mapi (fun i (shard, c) ->
         ( string_of_int i
         , Ws.digest (Sm_shard.Client.view c)
         , Sm_shard.Server.digest (Sm_shard.Service.shard svc shard) ))

let small_sim seed = { (Spawnsim.config ~seed) with hosts = 5; messages = 10; ttl = 20 }

let sim ?drop_hop ?(runner = fun body -> R.run body) c =
  (fst (Spawnsim.simulate ?drop_hop ~runner c)).Spawnsim.report

let () =
  (* collab-*: the real round passes every check. *)
  let outcome, svc, clients = collab 1L in
  expect "collab: real round passes every check" (Outcome.passed outcome);
  expect "collab: the real views equal their shards" (ok (Checks.converged (views svc clients)));
  (* A view edited after convergence. *)
  let shard, c = clients.(0) in
  let doc = List.hd (Sm_shard.Service.docs_on svc shard) in
  Sm_shard.Client.edit c
    (Sm_shard.Service.edit_doc ~rng:(Sm_util.Det_rng.create ~seed:9L) ~ins_bias:1. doc);
  expect "collab: a view edited after convergence fails views_equal_shards"
    (not (ok (Checks.converged (views svc clients))));
  (* A committed-op count off by one. *)
  let placed = outcome.attempted in
  let committed = outcome.attempted - outcome.failed in
  expect "collab: the real committed-op count passes" (ok (Checks.ops_committed ~placed ~committed));
  expect "collab: a committed-op count off by one fails"
    (not (ok (Checks.ops_committed ~placed ~committed:(committed - 1))));
  let batches = List.assoc "batches" outcome.det in
  expect "collab: one batch too many fails batches_flushed_eq_merged"
    (not (ok (Checks.batches_merged ~flushed:(batches + 1) ~merged:batches)));
  expect "collab: a Nack fails no_client_failed"
    (not (ok (Checks.no_failures [ ("client0", "nack") ])));
  expect "collab: hitting the tick budget fails quiesced"
    (not (ok (Checks.quiesced ~ticks:10 ~max_ticks:10)));
  (* Reference: snapshot mode reaches the same contents as delta mode. *)
  let snap, _, _ = collab ~cfg:{ Collab.small with mode = `Snapshot } 1L in
  expect "collab: snapshot mode passes every check" (Outcome.passed snap);
  expect "collab: snapshot mode reaches delta mode's contents" (snap.content = outcome.content);
  (* The seed is used: another seed's content differs. *)
  let other, _, _ = collab 2L in
  expect "collab: another seed passes every check" (Outcome.passed other);
  expect "collab: another seed yields different content" (other.content <> outcome.content);
  let again, _, _ = collab 1L in
  expect "collab: the same seed repeats its content and counts"
    (again.content = outcome.content && again.det = outcome.det);
  (* spawn-sim: threaded, cooperative, lock-based reference. *)
  let c = small_sim 1L in
  let threaded = sim c in
  let reference = (Sm_sim.Sim_conventional.run c).event_digest in
  let expected = Sm_sim.Workload.total_hops c in
  expect "spawn-sim: the real run passes hops_eq_messages_x_ttl"
    (ok (Checks.hops ~expected ~processed:threaded.hops));
  expect "spawn-sim: the real run matches the conventional event digest"
    (ok (Checks.event_digest ~reference ~observed:threaded.event_digest));
  let coop = sim ~runner:(fun body -> R.Coop.run body) c in
  expect "spawn-sim: Coop.run gives the threaded order_digest" (coop.order_digest = threaded.order_digest);
  let again = sim c in
  expect "spawn-sim: the threaded order_digest repeats" (again.order_digest = threaded.order_digest);
  (* A dropped hop. *)
  let dropped = sim ~drop_hop:true c in
  expect "spawn-sim: a dropped hop fails hops_eq_messages_x_ttl"
    (not (ok (Checks.hops ~expected ~processed:dropped.hops)));
  expect "spawn-sim: a dropped hop fails event_digest_eq_conventional"
    (not (ok (Checks.event_digest ~reference ~observed:dropped.event_digest)));
  let other = sim (small_sim 2L) in
  expect "spawn-sim: another seed yields a different order_digest"
    (other.order_digest <> threaded.order_digest);
  if !failures > 0 then begin
    Printf.printf "%d test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all tests passed"
