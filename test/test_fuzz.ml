(** lib/fuzz: generator/codec laws, oracle cleanliness on clean seeds, the
    seeded-mutation acceptance criterion (catch + shrink to <= 6 steps),
    byte-for-byte replay, and the two runtime corner cases this PR pins:
    queue push order across schedulers and [?validate] refusing a
    [merge_any_from_set]. *)

open Test_support
module P = Sm_ir.Program
module Rt = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace
module Np = Sm_sim.Netpipe

let seeds_of n = List.init n (fun i -> Int64.of_int (i + 1))

(* --- program codec + generator ----------------------------------------------- *)

let codec_round_trip () =
  List.iter
    (fun profile ->
      List.iter
        (fun seed ->
          let p = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth:3 ~profile in
          let p' = P.of_string (P.to_string p) in
          check_bool
            (Printf.sprintf "codec round-trips seed %Ld" seed)
            (p = p' && P.to_string p = P.to_string p'))
        (seeds_of 20))
    [ P.det_profile; P.full_profile ]

let generator_deterministic () =
  List.iter
    (fun seed ->
      let gen () = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth:3 ~profile:P.full_profile in
      check_bool "same seed, same program" (gen () = gen ()))
    (seeds_of 10);
  let p1 = Sm_fuzz.Fuzzer.program_of_seed ~seed:1L ~depth:3 ~profile:P.det_profile in
  let p2 = Sm_fuzz.Fuzzer.program_of_seed ~seed:2L ~depth:3 ~profile:P.det_profile in
  check_bool "different seeds diverge" (p1 <> p2)

let generator_respects_profile () =
  List.iter
    (fun seed ->
      let p = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth:4 ~profile:P.det_profile in
      check_bool "det profile: no any-merges" (not (P.uses_any_merge p));
      check_bool "det profile: no clones" (not (P.uses_clone p));
      check_bool "root spawns"
        (List.exists (function P.Spawn _ -> true | _ -> false) p.P.scripts.(0)))
    (seeds_of 20)

let profile_round_trip () =
  List.iter
    (fun p ->
      match P.profile_of_string (P.profile_to_string p) with
      | Some p' -> check_bool ("profile round-trips: " ^ P.profile_to_string p) (p = p')
      | None -> Alcotest.fail ("profile_of_string rejected " ^ P.profile_to_string p))
    [ P.det_profile; P.full_profile ];
  check_bool "unknown flag rejected" (P.profile_of_string "validate,warp" = None)

(* --- oracles ----------------------------------------------------------------- *)

let clean_seeds_pass () =
  Sm_fuzz.Oracle.with_env (fun env ->
      List.iter
        (fun (profile, name) ->
          List.iter
            (fun seed ->
              let p = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth:2 ~profile in
              match Sm_fuzz.Oracle.check ~runs:2 env p with
              | Ok () -> ()
              | Error f ->
                Alcotest.failf "seed %Ld (%s): [%s] %s" seed name f.Sm_fuzz.Oracle.oracle
                  f.Sm_fuzz.Oracle.detail)
            (seeds_of 5))
        [ (P.det_profile, "det"); (P.full_profile, "full") ])

(* The two reference-model oracles on clean seeds of both profiles: the
   runs over the detached (deep-copy) and flat-checked keysets raise
   nothing and reproduce the clean digest. *)
let reference_oracles_clean_seeds () =
  Sm_fuzz.Oracle.with_env (fun env ->
      List.iter
        (fun (focus, profile) ->
          List.iter
            (fun seed ->
              let p = Sm_fuzz.Fuzzer.program_of_seed ~seed ~depth:2 ~profile in
              match Sm_fuzz.Oracle.check ~focus ~runs:2 env p with
              | Ok () -> ()
              | Error f ->
                Alcotest.failf "seed %Ld: [%s] %s" seed f.Sm_fuzz.Oracle.oracle
                  f.Sm_fuzz.Oracle.detail)
            (seeds_of 5))
        [ ("cow", P.det_profile); ("cow", P.full_profile); ("rope", P.det_profile)
        ; ("rope", P.full_profile) ])

let text sel a b = P.Op { P.ty = P.Text; sel; a; b }
let merge_all = P.Merge { kind = P.All; sel = 0; validate = 0 }

(* A test-only text module with a persistence bug: it computes the right
   result, then writes into the first nonempty chunk of its input — the
   snapshot a copy-on-write workspace may still share with a parent. *)
module Mutating_text = struct
  include Sm_mergeable.Mtext.Data

  let apply r op =
    let result = apply r op in
    let first =
      Sm_ot.Rope.fold_chunks (fun acc c -> if acc = None && c <> "" then Some c else acc) None r
    in
    Option.iter
      (fun c ->
        let b = Bytes.unsafe_of_string c in
        Bytes.set b 0 (if Bytes.get b 0 = '#' then '%' else '#'))
      first;
    result
end

let cow_catches_mutating_apply () =
  let root = [ text 2 0 1; P.Spawn 0; text 0 0 2; merge_all ] in
  let prog = { P.scripts = [| root; [ text 2 0 3 ] |] } in
  let oracle ~text =
    let keys = Sm_fuzz.Interp.Keyset.make ~text () in
    let detached =
      Sm_fuzz.Interp.Keyset.make ~wrap:Sm_fuzz.Interp.Keyset.detached_wrap ~text ()
    in
    Sm_fuzz.Oracle.cow ~detached prog ~baseline:(Sm_fuzz.Oracle.coop_digest keys prog)
  in
  check_bool "the clean text module passes"
    (oracle ~text:(module Sm_mergeable.Mtext.Data) = Ok ());
  match oracle ~text:(module Mutating_text) with
  | Ok () -> Alcotest.fail "an apply that mutates its input passed the cow oracle"
  | Error f ->
    Alcotest.(check string) "caught by the cow oracle" "cow" f.Sm_fuzz.Oracle.oracle;
    check_bool "the report names the mutation"
      (contains ~needle:"mutated its input" f.Sm_fuzz.Oracle.detail)

(* A test-only text module with an off-by-one at the rope's chunk seam: an
   insert at exactly [Rope.target_chunk] lands one byte early. *)
module Seam_text = struct
  include Sm_mergeable.Mtext.Data

  let apply r op =
    match op with
    | Sm_ot.Op_text.Ins (pos, s) when pos = Sm_ot.Rope.target_chunk ->
      apply r (Sm_ot.Op_text.Ins (pos - 1, s))
    | op -> apply r op
end

let rope_catches_seam_bug () =
  (* 342 three-byte appends grow the document past the seam (1026 bytes);
     then one insert at position [target_chunk] = 1024 *)
  let appends = List.init 342 (fun _ -> text 2 0 10) in
  let root = appends @ [ P.Spawn 0; text 0 Sm_ot.Rope.target_chunk 4; merge_all ] in
  let prog = { P.scripts = [| root; [ text 2 0 5 ] |] } in
  let oracle ~text =
    let keys = Sm_fuzz.Interp.Keyset.make ~text () in
    let checked = Sm_fuzz.Interp.Keyset.make ~text:(Sm_check.Ref_text.checked text) () in
    Sm_fuzz.Oracle.rope ~checked prog ~baseline:(Sm_fuzz.Oracle.coop_digest keys prog)
  in
  check_bool "the clean text module passes"
    (oracle ~text:(module Sm_mergeable.Mtext.Data) = Ok ());
  match oracle ~text:(module Seam_text) with
  | Ok () -> Alcotest.fail "a chunk-seam off-by-one passed the rope oracle"
  | Error f ->
    Alcotest.(check string) "caught by the rope oracle" "rope" f.Sm_fuzz.Oracle.oracle;
    check_bool "the report names the divergence"
      (contains ~needle:"flat model" f.Sm_fuzz.Oracle.detail)

(* The acceptance criterion: every PR-3 [Mutate] kind seeded into the data
   plane is caught by the differential oracle and shrinks to a program of at
   most 6 steps.  Driven through the corpus so the pinned entries and the
   test can never drift apart. *)
let corpus_catches_and_shrinks () =
  Sm_fuzz.Oracle.with_env (fun env ->
      List.iter
        (fun e ->
          match Sm_fuzz.Corpus.check ~runs:2 env e with
          | Error msg -> Alcotest.fail msg
          | Ok Sm_fuzz.Fuzzer.Passed ->
            check_bool (e.Sm_fuzz.Corpus.name ^ ": clean entry passes") (e.Sm_fuzz.Corpus.expect = None)
          | Ok (Sm_fuzz.Fuzzer.Failed r) ->
            let size = P.size r.Sm_fuzz.Fuzzer.shrunk in
            if size > 6 then
              Alcotest.failf "%s: shrunk to %d steps, want <= 6" e.Sm_fuzz.Corpus.name size;
            check_bool
              (e.Sm_fuzz.Corpus.name ^ ": shrunk program still fails differential")
              (Sm_fuzz.Oracle.check ~focus:"differential" ~runs:2
                 ?mutate:e.Sm_fuzz.Corpus.mutate env r.Sm_fuzz.Fuzzer.shrunk
              <> Ok ()))
        Sm_fuzz.Corpus.all)

let replay_byte_identical () =
  Sm_fuzz.Oracle.with_env (fun env ->
      let e =
        match Sm_fuzz.Corpus.find "catches-tie-bias" with
        | Some e -> e
        | None -> Alcotest.fail "corpus entry catches-tie-bias missing"
      in
      let once () =
        match
          Sm_fuzz.Fuzzer.fuzz_one ?mutate:e.Sm_fuzz.Corpus.mutate ~runs:2 env
            ~seed:e.Sm_fuzz.Corpus.seed ~depth:e.Sm_fuzz.Corpus.depth
            ~profile:e.Sm_fuzz.Corpus.profile ()
        with
        | Sm_fuzz.Fuzzer.Failed r -> Sm_fuzz.Fuzzer.report_to_string r
        | Sm_fuzz.Fuzzer.Passed -> Alcotest.fail "expected a failure to replay"
      in
      let a = once () in
      let b = once () in
      Alcotest.(check string) "replay reproduces the report byte-for-byte" a b)

(* --- satellite: queue push order pins merge serialization order --------------- *)

(* Op_queue's transform is the identity, so concurrent pushes land in merge
   *serialization* order — which for [merge_all] is child *creation* order.
   This is the [queue-push-order] known issue: pin it on both schedulers so
   any change to serialization order is caught as a digest break, not folk
   knowledge. *)
let queue_push_order () =
  let prog =
    P.of_string
      (String.concat "\n"
         [ "program v1"
         ; "task 0"
         ; "  spawn 0"  (* -> task 1, per target = idx + 1 + (j mod (n-idx-1)) *)
         ; "  spawn 1"  (* -> task 2 *)
         ; "  merge all 0 0"
         ; "task 1"
         ; "  op queue 0 3 0"  (* push 3 *)
         ; "task 2"
         ; "  op queue 0 7 0"  (* push 7 *)
         ; "end"
         ])
  in
  let keys = Sm_fuzz.Interp.Keyset.default () in
  let final ctx =
    Sm_fuzz.Interp.run keys prog ctx;
    Sm_fuzz.Interp.Keyset.queue_value (Rt.workspace ctx) keys
  in
  let coop = Rt.Coop.run final in
  Alcotest.(check (list int)) "coop: first-spawned child's push is first" [ 3; 7 ] coop;
  List.iter
    (fun domains ->
      let threaded = Rt.run ~domains final in
      Alcotest.(check (list int))
        (Printf.sprintf "threaded (%d domains) agrees with coop" domains)
        coop threaded)
    [ 1; 2 ]

(* --- satellite: ?validate refusing a merge_any_from_set ----------------------- *)

(* Refusal semantics for a sync-parked child (runtime.ml merge_child_locked):
   the child's pre-sync ops are rolled back, its [sync] returns
   [Error Validation_failed], and it *remains a running child* — the parent
   workspace is untouched.  Each child here does +1 / sync / +10; the refused
   child loses its +1 and later contributes only +10, the other contributes
   +1 then +10, so the final counter is exactly 21. *)
let validate_refuses_any_from_set () =
  let counter = Ws.create_key (module Sm_mergeable.Mcounter.Data) ~name:"t.counter" in
  let outcomes = Rt.Coop.run (fun ctx ->
      let ws = Rt.workspace ctx in
      Ws.init ws counter 0;
      let outcomes = ref [] in
      let child ctx =
        let ws = Rt.workspace ctx in
        Sm_mergeable.Mcounter.add ws counter 1;
        let r = Rt.sync ctx in
        outcomes := r :: !outcomes;
        Sm_mergeable.Mcounter.add ws counter 10
      in
      let h1 = Rt.spawn ctx child in
      let h2 = Rt.spawn ctx child in
      let before = Ws.digest ws in
      (match Rt.merge_any_from_set ~validate:(fun _ -> false) ctx [ h1; h2 ] with
      | Some _ -> ()
      | None -> Alcotest.fail "merge_any_from_set returned no handle");
      check_bool "refusal leaves the parent digest unchanged" (Ws.digest ws = before);
      check_bool "refused child is not retired"
        (Rt.status h1 <> Rt.Retired && Rt.status h2 <> Rt.Retired);
      check_bool "both children still pending" (Rt.has_children ctx);
      while Rt.has_children ctx do
        Rt.merge_all ctx
      done;
      Alcotest.(check int) "refused +1 lost, both +10s and one +1 land" 21
        (Sm_mergeable.Mcounter.get ws counter);
      !outcomes)
  in
  let errs =
    List.length (List.filter (function Error Rt.Validation_failed -> true | _ -> false) outcomes)
  in
  let oks = List.length (List.filter (function Ok () -> true | _ -> false) outcomes) in
  check_bool "exactly one sync was refused, one granted" (errs = 1 && oks = 1)

(* --- satellite: netpipe closed-connection sends are observable ---------------- *)

let netpipe_closed_send_observable () =
  Np.reset_stats ();
  let dropped = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Np.on_dropped_send None;
      Np.set_faults None;
      Np.reset_stats ())
    (fun () ->
      Np.on_dropped_send (Some (fun payload -> dropped := payload :: !dropped));
      let l = Np.listen () in
      let client = Np.connect l in
      let server = match Np.accept l with Some c -> c | None -> Alcotest.fail "accept" in
      Np.send client "alive";
      Alcotest.(check (option string)) "pre-close delivery" (Some "alive") (Np.recv server);
      Np.close client;
      Np.send client "lost-1";
      Np.send client "lost-2";
      Np.shutdown l;
      let st = Np.stats () in
      Alcotest.(check int) "dropped_closed counts both sends" 2 st.Np.dropped_closed;
      Alcotest.(check int) "delivered counts only the live send" 1 st.Np.delivered;
      Alcotest.(check (list string))
        "hook saw each dropped payload, in order" [ "lost-1"; "lost-2" ] (List.rev !dropped))

let netpipe_conservation () =
  List.iter
    (fun seed ->
      match Sm_fuzz.Net_target.check ~faults:Sm_fuzz.Net_target.default_faults ~seed () with
      | Ok _ -> ()
      | Error detail -> Alcotest.failf "seed %Ld: %s" seed detail)
    (seeds_of 8)

let netpipe_deterministic () =
  List.iter
    (fun seed ->
      match Sm_fuzz.Net_target.check_deterministic ~seed () with
      | Ok () -> ()
      | Error detail -> Alcotest.failf "seed %Ld: %s" seed detail)
    (seeds_of 4)

let netpipe_lossless_fifo () =
  List.iter
    (fun seed ->
      match Sm_fuzz.Net_target.check ~faults:Sm_fuzz.Net_target.no_faults ~seed () with
      | Ok _ -> ()
      | Error detail -> Alcotest.failf "seed %Ld: %s" seed detail)
    (seeds_of 4)

(* --- dist chaos invariance ---------------------------------------------------- *)

let dist_chaos_invariant () =
  List.iter
    (fun seed ->
      match Sm_fuzz.Dist_target.check ~seed () with
      | Ok _ -> ()
      | Error detail -> Alcotest.failf "seed %Ld: %s" seed detail)
    (seeds_of 2)

let suite =
  [ Alcotest.test_case "program: codec round-trip" `Quick codec_round_trip
  ; Alcotest.test_case "program: generator is seed-deterministic" `Quick generator_deterministic
  ; Alcotest.test_case "program: generator respects profile" `Quick generator_respects_profile
  ; Alcotest.test_case "program: profile string round-trip" `Quick profile_round_trip
  ; Alcotest.test_case "oracle: clean seeds pass everything" `Slow clean_seeds_pass
  ; Alcotest.test_case "oracle: cow and rope pass on clean seeds" `Slow
      reference_oracles_clean_seeds
  ; Alcotest.test_case "oracle: cow catches an apply mutating its input" `Quick
      cow_catches_mutating_apply
  ; Alcotest.test_case "oracle: rope catches a chunk-seam off-by-one" `Quick
      rope_catches_seam_bug
  ; Alcotest.test_case "corpus: seeded mutations caught, shrunk <= 6" `Slow
      corpus_catches_and_shrinks
  ; Alcotest.test_case "fuzz_one: failure report replays byte-for-byte" `Slow
      replay_byte_identical
  ; Alcotest.test_case "runtime: queue push order = spawn order, both schedulers" `Quick
      queue_push_order
  ; Alcotest.test_case "runtime: validate refusing merge_any_from_set" `Quick
      validate_refuses_any_from_set
  ; Alcotest.test_case "netpipe: closed-conn sends hit stats and hook" `Quick
      netpipe_closed_send_observable
  ; Alcotest.test_case "netpipe: conservation law under faults" `Quick netpipe_conservation
  ; Alcotest.test_case "netpipe: fault decisions are seed-deterministic" `Quick
      netpipe_deterministic
  ; Alcotest.test_case "netpipe: lossless runs deliver exact FIFO" `Quick netpipe_lossless_fifo
  ; Alcotest.test_case "dist: digest invariant under chaos relay" `Slow dist_chaos_invariant
  ]
