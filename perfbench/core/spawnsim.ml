(* spawn-sim: the paper's Listing-4 network simulation, written against the
   public Runtime API (spawn / sync / merge_all, Mqueue, Mcounter).

   One task per host; each holds a copy of every host's mergeable queue.  A
   host loops: sync, pop one message from its own queue, process it, push
   the successor to its destination's queue.  The root loops merge_all,
   which merges all hosts in creation order once per cycle.  Spans go on
   lane 0 for the root and lane [i + 1] for host [i]. *)

module R = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace
module W = Sm_sim.Workload
module Metrics = Sm_obs.Metrics
module T = Trace

module Msg_elt = struct
  type t = W.message

  let equal = W.equal_message
  let pp = W.pp_message
end

module Mq = Sm_mergeable.Mqueue.Make (Msg_elt)
module Mc = Sm_mergeable.Mcounter

let config ~seed =
  { W.default with hosts = 20; messages = 100; ttl = 400; load = 0; seed }

let setup_reps = 9

(* The root's share of the set-up: one queue per host holding its initial
   messages, and the live-message counter. *)
let init_network root (c : W.config) =
  let ws = R.workspace root in
  let queues =
    Array.init c.hosts (fun i ->
        let k = Mq.key ~name:(Printf.sprintf "queue-%d" i) in
        Ws.init ws k [];
        k)
  in
  let live = Mc.key ~name:"live-messages" in
  Ws.init ws live c.messages;
  List.iter (fun (host, m) -> Mq.push ws queues.(host) m) (W.initial_messages c);
  (queues, live)

(* A spare set-up, timed alone: the same init and spawns, with hosts that
   park in their first sync like the real ones and then end. *)
let spare_setup c =
  R.run (fun root ->
      let t0 = Unix.gettimeofday () in
      ignore (init_network root c);
      for _ = 1 to c.hosts do
        ignore (R.spawn root (fun ctx -> ignore (R.sync ctx)))
      done;
      Unix.gettimeofday () -. t0)

type result =
  { report : W.report
  ; setup_s : float
  ; sim_s : float
  ; converge_s : float
  ; cycle_ms : float list
  ; syncs : int
  }

(* [runner] is Runtime.run or Runtime.Coop.run.  [drop_hop] makes host 0
   discard its first message unprocessed — a deliberately wrong run for the
   benchmark's own tests. *)
let simulate ?(drop_hop = false) ~(runner : (R.ctx -> unit) -> unit) (c : W.config) =
  W.validate c;
  let trace = W.Trace.create ~hosts:c.hosts in
  let syncs = Array.make c.hosts 0 in
  let out = ref None in
  runner (fun root ->
      let setup = T.start 0 T.Setup in
      let t0 = Unix.gettimeofday () in
      let ws = R.workspace root in
      let queues, live = init_network root c in
      let host_body i ctx =
        let lane = i + 1 in
        let hws = R.workspace ctx in
        let loop_span = T.start lane T.Host_loop in
        let rec loop () =
          let s = T.start lane T.Rt_sync in
          let r = R.sync ctx in
          T.finish lane s;
          syncs.(i) <- syncs.(i) + 1;
          match r with
          | Error _ -> ()
          | Ok () ->
            if Mc.get hws live > 0 then begin
              (match Mq.pop hws queues.(i) with
              | None -> ()
              | Some _ when drop_hop && i = 0 && syncs.(0) = 1 -> Mc.decr hws live
              | Some m -> (
                W.Trace.record trace ~host:i m;
                let s = T.start lane T.Host_work in
                let next = W.process c ~host:i m in
                T.finish lane s;
                match next with
                | Some m', destination -> Mq.push hws queues.(destination) m'
                | None, _ -> Mc.decr hws live));
              loop ()
            end
        in
        loop ();
        T.finish lane loop_span
      in
      for i = 0 to c.hosts - 1 do
        ignore (T.span 0 T.Rt_spawn (fun () -> R.spawn root (host_body i)))
      done;
      let t1 = Unix.gettimeofday () in
      T.finish 0 setup;
      let cycles = Sm_util.Vec.create () in
      let t_quiet = ref None in
      while R.has_children root do
        let s = T.start 0 T.Rt_merge_all in
        let a = Unix.gettimeofday () in
        R.merge_all root;
        let b = Unix.gettimeofday () in
        T.finish 0 s;
        Sm_util.Vec.push cycles ((b -. a) *. 1e3);
        if !t_quiet = None && Mc.get ws live = 0 then t_quiet := Some b
      done;
      (* Verified: every host retired and the root's queues all drained. *)
      let drained = Array.for_all (fun q -> Mq.is_empty ws q) queues in
      let t2 = Unix.gettimeofday () in
      out := Some (t0, t1, Option.value !t_quiet ~default:t2, t2, Sm_util.Vec.to_list cycles, drained));
  match !out with
  | None -> assert false
  | Some (t0, t1, t_quiet, t2, cycle_ms, drained) ->
    let report = W.Trace.finish trace ~elapsed_s:(t2 -. t1) in
    ( { report
      ; setup_s = t1 -. t0
      ; sim_s = t_quiet -. t1
      ; converge_s = t2 -. t_quiet
      ; cycle_ms
      ; syncs = Array.fold_left ( + ) 0 syncs
      }
    , drained )

let run ?(traced = false) ~seed ~reference () =
  let c = config ~seed in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let res, drained = simulate ~runner:(fun body -> R.run body) c in
  let gc1 = Gc.quick_stat () in
  (* The spare set-ups run after the round, so its heap figures stay its own. *)
  let spare_setups = if traced then [] else List.init (setup_reps - 1) (fun _ -> spare_setup c) in
  let r = res.report in
  let expected = W.total_hops c in
  let checks =
    [ Checks.hops ~expected ~processed:r.hops
    ; Checks.event_digest ~reference ~observed:r.event_digest
    ; Outcome.check "queues_drained" drained "a host queue still holds messages"
    ]
  in
  let pct p = Sm_util.Stats.percentile res.cycle_ms ~p in
  let e2e =
    [ ("ops_per_s", float_of_int r.hops /. res.sim_s)
    ; ("latency_p50_ms", pct 50.)
    ; ("latency_p90_ms", pct 90.)
    ; ("makespan_s", res.sim_s +. res.converge_s)
    ; ("heap_peak_mb", Outcome.mb_of_words gc1.top_heap_words)
    ]
  in
  let gc =
    [ ("gc.minor_collections", float_of_int (gc1.minor_collections - gc0.minor_collections))
    ; ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections))
    ; ("gc.promoted_mw", (gc1.promoted_words -. gc0.promoted_words) /. 1e6)
    ]
  in
  let cycles = List.length res.cycle_ms in
  let layers =
    if not traced then []
    else begin
      let counter name = float_of_int (Metrics.value (Metrics.counter name)) in
      let host_sum = T.self_s ~first:1 ~last:c.hosts in
      let root_self = T.self_s ~first:0 ~last:0 in
      let wall = res.setup_s +. res.sim_s +. res.converge_s in
      let layers_s = root_self T.Rt_spawn +. root_self T.Rt_merge_all in
      let driver_s = root_self T.Setup in
      let c_in = counter "ot.compact_in" and c_out = counter "ot.compact_out" in
      [ ("runtime.merge_all_s", root_self T.Rt_merge_all)
      ; ("runtime.sync_s", host_sum T.Rt_sync)
      ; ("runtime.spawn_s", root_self T.Rt_spawn)
      ; ("runtime.cycle_p99_ms", pct 99.)
      ; ("runtime.cycles", float_of_int cycles)
      ; ("runtime.syncs", float_of_int res.syncs)
      ; ("runtime.useful_sync_ratio", float_of_int r.hops /. float_of_int res.syncs)
      ; ("runtime.converge_s", res.converge_s)
      ; ("host.work_s", host_sum T.Host_work)
      ; ("ot.transform_calls", counter "ot.transform_calls")
      ; ("ot.compact_in", c_in)
      ; ("ot.compact_out", c_out)
      ; ("ot.compact_ratio", if c_in = 0. then 0. else c_out /. c_in)
      ; ("ws.cow_hits", float_of_int (Metrics.value Ws.cow_hits))
      ; ("ws.copy_bytes", float_of_int (Metrics.value Ws.copy_bytes))
      ; ("driver_s", driver_s)
      ; ("attr.wall_s", wall)
      ; ("attr.layer_share", layers_s /. wall)
      ; ("attr.unattributed_s", wall -. layers_s -. driver_s)
      ]
    end
  in
  { Outcome.metrics = e2e @ gc @ layers
  ; det = [ ("hops", r.hops); ("cycles", cycles) ]
  ; content = r.order_digest
  ; setups = res.setup_s :: spare_setups
  ; checks
  ; attempted = expected
  ; failed = expected - r.hops
  }

let reference ~seed = (Sm_sim.Sim_conventional.run (config ~seed)).event_digest
