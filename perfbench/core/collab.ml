(* collab-edit and collab-follow: a fleet of editors and followers against
   the shard service, driven through Service / Client only.

   Everything runs in one tick loop on the calling thread, so a round is a
   pure function of the seed.  Editors work closed-loop: a session has at
   most one request in flight, and an editor places its next burst only
   after the previous one was acked.  Followers only poll. *)

module Ws = Sm_mergeable.Workspace
module Rng = Sm_util.Det_rng
module Service = Sm_shard.Service
module Client = Sm_shard.Client
module Server = Sm_shard.Server
module Proto = Sm_shard.Proto
module Registry = Sm_dist.Registry
module Netpipe = Sm_sim.Netpipe
module Metrics = Sm_obs.Metrics
module T = Trace

type config =
  { shards : int
  ; writers : int
  ; followers : int
  ; ops_per_writer : int
  ; burst_max : int  (* ops per flushed batch: 1..burst_max *)
  ; think_max : int  (* idle ticks between bursts: 0..think_max *)
  ; ins_bias : float
  ; text_docs : int
  ; tree_docs : int
  ; text_bytes : int  (* initial size of each text document *)
  ; epoch_ticks : int
  ; poll_every : int  (* follower poll period, in ticks *)
  ; mode : Server.mode
  ; max_ticks : int
  }

let collab_edit =
  { shards = 4
  ; writers = 500
  ; followers = 0
  ; ops_per_writer = 50
  ; burst_max = 4
  ; think_max = 3
  ; ins_bias = 0.7
  ; text_docs = 28
  ; tree_docs = 4
  ; text_bytes = 1024
  ; epoch_ticks = 4
  ; poll_every = 4
  ; mode = `Delta
  ; max_ticks = 200_000
  }

let collab_follow =
  { collab_edit with writers = 100; followers = 900; ops_per_writer = 100; text_docs = 32; tree_docs = 0 }

(* A sub-second configuration for the benchmark's own tests. *)
let small =
  { collab_edit with
    shards = 2
  ; writers = 12
  ; followers = 4
  ; ops_per_writer = 12
  ; text_docs = 4
  ; tree_docs = 2
  ; text_bytes = 64
  }

(* --- seeded documents ------------------------------------------------------- *)

let random_text rng bytes =
  let b = Buffer.create (bytes + 16) in
  while Buffer.length b < bytes do
    let word = 1 + Rng.int rng ~bound:9 in
    for _ = 1 to word do
      Buffer.add_char b (Char.chr (Char.code 'a' + Rng.int rng ~bound:26))
    done;
    Buffer.add_char b (if Rng.int rng ~bound:12 = 0 then '\n' else ' ')
  done;
  Buffer.sub b 0 bytes

let random_forest rng =
  let label () = Printf.sprintf "n%d" (Rng.int rng ~bound:1000) in
  List.init
    (2 + Rng.int rng ~bound:4)
    (fun _ ->
      Service.Tree.Op.branch (label ())
        (List.init (Rng.int rng ~bound:4) (fun _ -> Service.Tree.Op.leaf (label ()))))

let specs cfg rng : Service.spec list =
  List.init cfg.text_docs (fun i ->
      `Text (Printf.sprintf "doc/text%02d" i, random_text rng cfg.text_bytes))
  @ List.init cfg.tree_docs (fun i -> `Tree (Printf.sprintf "doc/tree%02d" i, random_forest rng))

(* --- the fleet --------------------------------------------------------------- *)

type actor =
  { idx : int
  ; client : Client.t
  ; rng : Rng.t
  ; shard : int
  ; writer : bool
  ; mutable remaining : int
  ; mutable think : int
  ; mutable batch : int  (* id of the batch awaiting its ack, or -1 *)
  ; mutable batch_ops : int
  ; mutable flush_ns : int
  ; mutable flush_tick : int
  ; mutable polled : bool  (* sent the drain-phase poll *)
  }

(* A sampled reply for the traced run's wire/registry re-timing: a client's
   cursors and replica after one ack, and its shard's workspace when the
   next ack was sent — the window that next reply covered. *)
type sample =
  { s_revs : (int * int) list
  ; s_replica : Ws.t
  ; s_ws : Ws.t
  }

type stats =
  { mutable placed : int
  ; mutable committed : int
  ; mutable flushed : int
  ; ack_ms : float Sm_util.Vec.t
  ; ack_ticks : float Sm_util.Vec.t
  ; starts : (int, ((int * int) list * Ws.t) option) Hashtbl.t
      (* per sampled writer: its state after the last ack; None once sampled *)
  ; mutable samples : sample list
  }

let lane = 0
let setup_reps = 9

let median xs = Sm_util.Stats.percentile xs ~p:50.

(* Microseconds per call of [f]: calls are timed in batches of at least
   2 ms, so the clock's resolution does not matter; median of 5 batches. *)
let retime f =
  let batch () =
    let t0 = Unix.gettimeofday () in
    let n = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.002 do
      ignore (Sys.opaque_identity (f ()));
      incr n
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int !n
  in
  median (List.init 5 (fun _ -> batch ()))

(* Re-time the pieces of the sampled replies: encode the delta from the
   shard's workspace, seal it, open it, apply it to the client's replica,
   and re-clone the view from the result.  Per reply or per op, in us. *)
let retime_replies reg samples =
  let rows =
    List.filter_map
      (fun s ->
        let since id = Option.value ~default:0 (List.assoc_opt id s.s_revs) in
        let entries = Registry.encode_delta reg s.s_ws ~since in
        let ops = List.fold_left (fun acc (_, f, t, _) -> acc + (t - f)) 0 entries in
        if ops = 0 then None
        else begin
          let per_op x = x /. float_of_int ops in
          let encode = retime (fun () -> Registry.encode_delta reg s.s_ws ~since) in
          let reply = Proto.Ack { session = 0; req = 0; payload = Proto.Delta entries } in
          let seal = retime (fun () -> Proto.seal_s2c reply) in
          let frame = Proto.seal_s2c reply in
          let open_ = retime (fun () -> Proto.open_s2c_v frame) in
          let fresh = retime (fun () -> Ws.clone_trimmed s.s_replica) in
          let apply =
            retime (fun () ->
                let into = Ws.clone_trimmed s.s_replica in
                Registry.apply_delta reg ~into ~cursor:since entries;
                into)
          in
          let applied = Ws.clone_trimmed s.s_replica in
          Registry.apply_delta reg ~into:applied ~cursor:since entries;
          let clone = retime (fun () -> Ws.clone_trimmed applied) in
          Some (seal, open_, per_op encode, per_op (apply -. fresh), clone)
        end)
      samples
  in
  let col f = match rows with [] -> 0. | _ -> median (List.map f rows) in
  [ ("wire.reply_seal_us", col (fun (s, _, _, _, _) -> s))
  ; ("wire.reply_open_us", col (fun (_, o, _, _, _) -> o))
  ; ("registry.encode_delta_us_per_op", col (fun (_, _, e, _, _) -> e))
  ; ("registry.apply_delta_us_per_op", col (fun (_, _, _, a, _) -> a))
  ; ("ws.clone_trimmed_us", col (fun (_, _, _, _, c) -> c))
  ]

let run ?(traced = false) cfg ~seed =
  let master = Rng.create ~seed in
  let docs = Service.make_docs (specs cfg (Rng.split master)) in
  let reg = Service.registry docs in
  let n = cfg.writers + cfg.followers in
  (* Set-up: deploy the shards and open every session. *)
  let deploy () =
    let t0 = Unix.gettimeofday () in
    let svc = Service.create docs ~shards:cfg.shards ~mode:cfg.mode ~epoch_ticks:cfg.epoch_ticks in
    let clients =
      Array.init n (fun idx ->
          let shard = idx mod cfg.shards in
          T.span lane T.Client_connect (fun () ->
              Client.connect ~reg ~name:(Printf.sprintf "client%d" idx)
                ~init:(Service.client_init svc ~shard)
                (Service.listener svc shard)))
    in
    (svc, clients, Unix.gettimeofday () -. t0)
  in
  Netpipe.reset_stats ();
  (* Start from an empty minor heap so that minor collections, and with them
     the per-layer allocation figures, fall at the same points every round. *)
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let alloc0 = T.alloc_words () in
  let t_round = Unix.gettimeofday () in
  let round_span = T.start lane T.Round in
  let setup_span = T.start lane T.Setup in
  let svc, clients, setup_once = deploy () in
  T.finish lane setup_span;
  let actors =
    Array.mapi
      (fun idx client ->
        let rng = Rng.split master in
        let writer = idx < cfg.writers in
        { idx
        ; client
        ; rng
        ; shard = idx mod cfg.shards
        ; writer
        ; remaining = (if writer then cfg.ops_per_writer else 0)
        ; think = Rng.int rng ~bound:(cfg.think_max + 1)
        ; batch = -1
        ; batch_ops = 0
        ; flush_ns = 0
        ; flush_tick = 0
        ; polled = false
        })
      clients
  in
  let st =
    { placed = 0
    ; committed = 0
    ; flushed = 0
    ; ack_ms = Sm_util.Vec.create ()
    ; ack_ticks = Sm_util.Vec.create ()
    ; starts = Hashtbl.create 16
    ; samples = []
    }
  in
  let docs_on = Array.init cfg.shards (fun k -> Service.docs_on svc k) in
  let tick = ref 0 in
  let next_batch = ref 0 in
  let writers_left = ref cfg.writers in
  (* Traced runs keep, per sampled writer, the reply it got halfway through
     its ops.  Right after an ack is applied the client's cursors equal its
     shard's revisions: an epoch builds every reply after its last merge. *)
  let sample a =
    T.span lane T.Driver_gen (fun () ->
        let shard_ws = Server.workspace (Service.shard svc a.shard) in
        match Hashtbl.find_opt st.starts a.idx with
        | Some None -> () (* already sampled *)
        | Some (Some (revs, replica)) when 2 * a.remaining <= cfg.ops_per_writer ->
          Hashtbl.replace st.starts a.idx None;
          st.samples <- { s_revs = revs; s_replica = replica; s_ws = Ws.clone_full shard_ws } :: st.samples
        | Some (Some _) | None ->
          Hashtbl.replace st.starts a.idx
            (Some (Registry.revisions reg shard_ws, Ws.clone_trimmed (Client.shadow a.client))))
  in
  (* Drain replies for a client that is waiting for one; settle an acked
     batch. *)
  let receive a =
    if not (Client.ready a.client) then begin
      let s = T.start lane T.Client_tick in
      Client.tick a.client;
      let acked = a.batch >= 0 && Client.ready a.client in
      T.finish lane s ~arg:a.idx ~batch:(if acked then a.batch else -1);
      if acked then begin
        Sm_util.Vec.push st.ack_ms (float_of_int (T.now_ns () - a.flush_ns) /. 1e6);
        Sm_util.Vec.push st.ack_ticks (float_of_int (!tick - a.flush_tick));
        st.committed <- st.committed + a.batch_ops;
        if traced && a.idx mod 50 = 0 then sample a;
        a.batch <- -1;
        if a.remaining = 0 then decr writers_left
      end
    end
  in
  let edit_burst a =
    if a.think > 0 then a.think <- a.think - 1
    else begin
      match docs_on.(a.shard) with
      | [] ->
        (* nothing routed to this shard: the editor has nothing to edit *)
        a.remaining <- 0;
        decr writers_left
      | docs_here ->
      let burst = min a.remaining (1 + Rng.int a.rng ~bound:cfg.burst_max) in
      for _ = 1 to burst do
        let s = T.start lane T.Client_edit in
        Client.edit a.client
          (Service.edit_doc ~rng:a.rng ~ins_bias:cfg.ins_bias (Rng.pick a.rng docs_here));
        T.finish lane s ~arg:a.idx
      done;
      let batch = !next_batch in
      incr next_batch;
      a.batch <- batch;
      a.batch_ops <- Client.pending_ops a.client;
      a.flush_ns <- T.now_ns ();
      a.flush_tick <- !tick;
      let s = T.start lane T.Client_flush in
      Client.flush a.client;
      T.finish lane s ~arg:a.idx ~batch;
      st.placed <- st.placed + burst;
      st.flushed <- st.flushed + 1;
      a.remaining <- a.remaining - burst;
      a.think <- Rng.int a.rng ~bound:(cfg.think_max + 1)
    end
  in
  let poll a =
    let s = T.start lane T.Client_poll in
    Client.poll a.client;
    T.finish lane s ~arg:a.idx
  in
  let shard_tick () =
    let s = T.start lane T.Shard_tick in
    Service.tick svc;
    T.finish lane s ~arg:!tick
  in
  let failed a = Client.failed a.client <> None in
  (* Editing phase: first tick until every editor placed and got acked
     every op and the shards hold no unmerged batch. *)
  let quiesced () =
    !writers_left = 0 && Service.idle svc && Array.for_all (fun a -> failed a || Client.ready a.client) actors
  in
  let t_edit = Unix.gettimeofday () in
  while !tick < cfg.max_ticks && not (quiesced ()) do
    let ts = T.start lane T.Tick in
    shard_tick ();
    Array.iter
      (fun a ->
        if not (failed a) then begin
          receive a;
          if Client.ready a.client then
            if a.writer then (if a.remaining > 0 then edit_burst a)
            else if !writers_left > 0 && (!tick + a.idx) mod cfg.poll_every = 0 then poll a
        end)
      actors;
    T.finish lane ts ~arg:!tick;
    incr tick
  done;
  let t_quiet = Unix.gettimeofday () in
  let edit_ticks = !tick in
  (* Convergence: one drain poll per replica, then every view's digest
     against its shard's. *)
  let conv = T.start lane T.Converge in
  let drained () = Array.for_all (fun a -> failed a || (a.polled && Client.ready a.client)) actors in
  while !tick < cfg.max_ticks && not (drained ()) do
    let ts = T.start lane T.Tick in
    shard_tick ();
    Array.iter
      (fun a ->
        if not (failed a) then begin
          receive a;
          if Client.ready a.client && not a.polled then begin
            poll a;
            a.polled <- true
          end
        end)
      actors;
    T.finish lane ts ~arg:!tick;
    incr tick
  done;
  let shard_digests =
    Array.init cfg.shards (fun k ->
        T.span lane T.Shard_digest (fun () -> Server.digest (Service.shard svc k)))
  in
  let views =
    Array.to_list actors
    |> List.filter (fun a -> not (failed a))
    |> List.map (fun a ->
           let s = T.start lane T.View_digest in
           let d = Ws.digest (Client.view a.client) in
           T.finish lane s ~arg:a.idx;
           (Printf.sprintf "client%d" a.idx, d, shard_digests.(a.shard)))
  in
  T.finish lane conv;
  let t_done = Unix.gettimeofday () in
  T.finish lane round_span;
  let wall_s = t_done -. t_round in
  let alloc_words = int_of_float (T.alloc_words () -. alloc0) in
  let gc1 = Gc.quick_stat () in
  let net = Netpipe.stats () in
  (* An untraced round then deploys [setup_reps - 1] spare services, each
     from a compacted heap and dropped unused, and reports every set-up
     time.  They come after the round so that its heap and GC figures stay
     its own. *)
  let spare_setups =
    if traced then []
    else
      List.init (setup_reps - 1) (fun _ ->
          Gc.compact ();
          let _, _, s = deploy () in
          s)
  in
  let failures =
    Array.to_list actors
    |> List.filter_map (fun a ->
           Option.map (fun why -> (Printf.sprintf "client%d" a.idx, why)) (Client.failed a.client))
  in
  let checks =
    [ Checks.quiesced ~ticks:!tick ~max_ticks:cfg.max_ticks
    ; Checks.no_failures failures
    ; Checks.ops_committed ~placed:st.placed ~committed:st.committed
    ; Checks.batches_merged ~flushed:st.flushed ~merged:(Service.edits_merged svc)
    ; Checks.converged views
    ]
  in
  let ack_ms = Sm_util.Vec.to_list st.ack_ms in
  let ack_ticks = Sm_util.Vec.to_list st.ack_ticks in
  let pct xs p = match xs with [] -> 0. | _ -> Sm_util.Stats.percentile xs ~p in
  let delta_bytes = Service.delta_bytes_sent svc in
  let e2e =
    [ ("ops_per_s", float_of_int st.committed /. (t_quiet -. t_edit))
    ; ("latency_p50_ms", pct ack_ms 50.)
    ; ("latency_p90_ms", pct ack_ms 90.)
    ; ("makespan_s", t_done -. t_edit)
    ; ("heap_peak_mb", Outcome.mb_of_words gc1.top_heap_words)
    ]
  in
  let det =
    [ ("ticks", !tick)
    ; ("edit_ticks", edit_ticks)
    ; ("ops_placed", st.placed)
    ; ("batches", st.flushed)
    ; ("epochs", Service.epochs_run svc)
    ; ("delta_bytes", delta_bytes)
    ; ("net_sends", net.sends)
    ]
  in
  let gc =
    [ ("gc.minor_collections", float_of_int (gc1.minor_collections - gc0.minor_collections))
    ; ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections))
    ; ("gc.promoted_mw", (gc1.promoted_words -. gc0.promoted_words) /. 1e6)
    ]
  in
  let layers, layer_det =
    if not traced then ([], [])
    else begin
      let counter name = Metrics.value (Metrics.counter name) in
      (* Read before the re-timing below replays deltas of its own. *)
      let applied = counter "registry.applied_delta_ops" in
      let ot_calls = counter "ot.transform_calls" in
      let c_in = counter "ot.compact_in" and c_out = counter "ot.compact_out" in
      let alloc_w names = List.fold_left (fun acc n -> acc + T.alloc_words_of n) 0 names in
      let tick_ms = List.map (fun ns -> ns /. 1e6) (T.durations_ns T.Shard_tick) in
      let self names = List.fold_left (fun acc n -> acc +. T.self_s n) 0. names in
      let layers_s =
        self
          [ T.Setup; T.Client_connect; T.Client_tick; T.Client_edit; T.Client_flush; T.Client_poll
          ; T.Shard_tick; T.Shard_digest; T.View_digest ]
      in
      let driver_s = self [ T.Tick; T.Converge; T.Driver_gen ] in
      let retimed = retime_replies reg st.samples in
      ( [ ("client.tick_s", T.self_s T.Client_tick)
        ; ("client.tick_alloc_mw", T.alloc_mw T.Client_tick)
        ; ("client.edit_s", T.self_s T.Client_edit)
        ; ("client.edit_alloc_mw", T.alloc_mw T.Client_edit)
        ; ("client.flush_s", T.self_s T.Client_flush)
        ; ("client.flush_alloc_mw", T.alloc_mw T.Client_flush)
        ; ("client.poll_s", T.self_s T.Client_poll)
        ; ("client.poll_alloc_mw", T.alloc_mw T.Client_poll)
        ; ("registry.applied_delta_ops", float_of_int applied)
        ; ("shard.tick_s", T.self_s T.Shard_tick)
        ; ("shard.tick_p99_ms", pct tick_ms 99.)
        ; ("shard.tick_alloc_mw", T.alloc_mw T.Shard_tick)
        ; ("shard.epochs", float_of_int (counter "shard.epochs"))
        ; ("shard.epoch_edits", float_of_int (counter "shard.epoch_edits"))
        ; ("ot.transform_calls", float_of_int ot_calls)
        ; ("ot.compact_in", float_of_int c_in)
        ; ("ot.compact_out", float_of_int c_out)
        ; ("ot.compact_ratio", if c_in = 0 then 0. else float_of_int c_out /. float_of_int c_in)
        ; ("session.ack_p99_ms", pct ack_ms 99.)
        ; ("session.ack_ticks_p50", pct ack_ticks 50.)
        ; ("session.ack_ticks_p99", pct ack_ticks 99.)
        ; ("session.converge_s", t_done -. t_quiet)
        ; ("session.sync_bytes_per_op", float_of_int delta_bytes /. float_of_int (max 1 st.committed))
        ; ("ws.digest_s", self [ T.View_digest; T.Shard_digest ])
        ; ("ws.digest_alloc_mw", T.alloc_mw T.View_digest +. T.alloc_mw T.Shard_digest)
        ; ("ws.cow_hits", float_of_int (Metrics.value Ws.cow_hits))
        ; ("ws.copy_bytes", float_of_int (Metrics.value Ws.copy_bytes))
        ; ("net.sends", float_of_int net.sends)
        ; ("net.delivered", float_of_int net.delivered)
        ; ("driver_s", driver_s)
        ; ("attr.wall_s", wall_s)
        ; ("attr.layer_share", layers_s /. wall_s)
        ; ("attr.unattributed_s", wall_s -. layers_s -. driver_s)
        ]
        @ retimed,
        [ ("alloc_words", alloc_words)
        ; ("client.tick_alloc_w", alloc_w [ T.Client_tick ])
        ; ("client.edit_alloc_w", alloc_w [ T.Client_edit ])
        ; ("client.flush_alloc_w", alloc_w [ T.Client_flush ])
        ; ("client.poll_alloc_w", alloc_w [ T.Client_poll ])
        ; ("shard.tick_alloc_w", alloc_w [ T.Shard_tick ])
        ; ("ws.digest_alloc_w", alloc_w [ T.View_digest; T.Shard_digest ])
        ; ("client.ticks", T.count T.Client_tick)
        ; ("shard.ticks", T.count T.Shard_tick)
        ; ("ot.transform_calls", ot_calls)
        ; ("ot.compact_in", c_in)
        ; ("ot.compact_out", c_out)
        ; ("registry.applied_delta_ops", applied)
        ] )
    end
  in
  let content =
    Sm_util.Fnv.to_hex
      (Array.fold_left (fun acc d -> Sm_util.Fnv.combine acc (Sm_util.Fnv.hash d)) 0L shard_digests)
  in
  ( { Outcome.metrics = e2e @ gc @ layers
    ; det = det @ layer_det
    ; content
    ; setups = setup_once :: spare_setups
    ; checks
    ; attempted = st.placed
    ; failed = st.placed - st.committed
    }
  , svc
  , Array.map (fun a -> (a.shard, a.client)) actors )
