(* The rope/flat differential battery.

   The chunked rope behind [Op_text] must be observationally identical to
   the flat-string reference model (lib/check's [Ref_text]): same
   documents, same lengths, same printed form (hence same workspace
   digests), same errors.  Three layers of evidence:

   - a differential sweep over every operation and operation sequence the
     lib/check enumerator produces for text, applied to the rope and to the
     flat model (apply, transform, compact and digest equality);
   - adversarial chunk-boundary fixtures on multi-chunk documents —
     inserts and deletes spanning leaf seams, whole-chunk deletes,
     repeated edge appends;
   - rope structural invariants ([Rope.check]: honest cached sizes, leaf
     bounds, balance) maintained across 10k random edits, with the depth
     staying logarithmic in the chunk count. *)

open Test_support
module T = Sm_ot.Op_text
module F = Sm_check.Ref_text
module Rope = Sm_ot.Rope
module Tx = Sm_check.Instances.Text
module Ws = Sm_mergeable.Workspace
module Mtext = Sm_mergeable.Mtext
module Rng = Sm_util.Det_rng

let pp_of st = Format.asprintf "%a" T.pp_state st

(* Apply [op] to the flat model and to a rope of the same document and
   demand byte-, length-, print- and equality-level agreement. *)
let differential_step s op =
  let f = F.apply s op in
  let r = T.apply (T.of_string s) op in
  let ok =
    String.equal f (T.to_string r)
    && String.length f = T.length r
    && Rope.equal_string r f
    && String.equal (Format.asprintf "%a" F.pp_state f) (pp_of r)
  in
  if not ok then
    Alcotest.failf "divergence: state %S op %s (flat %S, rope %S)" s
      (Format.asprintf "%a" T.pp_op op) f (T.to_string r);
  f

(* every enumerated single op, on every enumerated state *)
let enumerated_ops_differential () =
  let states = [ ""; "a"; "ab"; "abcd"; "abcdef" ] in
  let total = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun op ->
          ignore (differential_step s op);
          incr total)
        (Tx.ops (T.of_string s)))
    states;
  check_bool "swept a real op space" (!total > 50)

(* every enumerated 2-op sequence: apply both raw and compacted, on the rope
   and the flat model — four runs that must land on the same document *)
let enumerated_sequences_differential () =
  let states = [ ""; "ab"; "abcdef" ] in
  List.iter
    (fun s ->
      List.iter
        (fun a ->
          let s1 = differential_step s a in
          List.iter
            (fun b ->
              let s2 = differential_step s1 b in
              let compacted = T.compact [ a; b ] in
              let fc = List.fold_left F.apply s compacted in
              let rc = List.fold_left T.apply (T.of_string s) compacted in
              check_bool "compacted flat agrees" (String.equal fc s2);
              check_bool "compacted rope agrees" (String.equal (T.to_string rc) s2);
              check_bool "compacted reps agree" (Rope.equal_string rc fc))
            (Tx.ops (T.of_string s1)))
        (Tx.ops (T.of_string s)))
    states

(* every enumerated concurrent pair, transformed both ways under both tie
   winners, applied on the rope and the flat model: TP1 with the
   convergence judged across both *)
let enumerated_transforms_differential () =
  let states = [ ""; "ab"; "abcd" ] in
  List.iter
    (fun s ->
      let ops = Tx.ops (T.of_string s) in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              List.iter
                (fun a_wins ->
                  let tie_a = Sm_ot.Side.uniform (if a_wins then Sm_ot.Side.Incoming else Sm_ot.Side.Applied) in
                  let tie_b = Sm_ot.Side.flip tie_a in
                  let a' = T.transform a ~against:b ~tie:tie_a in
                  let b' = T.transform b ~against:a ~tie:tie_b in
                  (* four routes to the merged document: flat and rope,
                     via-a and via-b — all must agree *)
                  let flat via rest = List.fold_left F.apply (F.apply s via) rest in
                  let rope via rest = List.fold_left T.apply (T.apply (T.of_string s) via) rest in
                  let rope_via_b = rope b a' and rope_via_a = rope a b' in
                  check_bool "tp1 across rope and flat model"
                    (Rope.equal_string rope_via_b (flat b a')
                    && Rope.equal_string rope_via_a (flat a b')
                    && T.equal_state rope_via_b rope_via_a))
                [ true; false ])
            ops)
        ops)
    states

(* the end-to-end digest: the same edit script journaled through a
   workspace digests identically on a rope cell and on a flat-model cell
   (same type and key names, so the digests are comparable) *)
module Flat_data = struct
  include F

  let type_name = Mtext.Data.type_name
end

let k_rope = Mtext.key ~name:"rope.digest"
let k_flat = Ws.create_key (module Flat_data) ~name:"rope.digest"

let workspace_digest_invariant () =
  let script ws k ~len =
    let append s = Ws.update ws k (T.Ins (len (), s)) in
    append "hello world, this is a document";
    Ws.update ws k (T.Ins (5, " there"));
    Ws.update ws k (T.Del (0, 3));
    append (String.make 2500 'z');
    Ws.update ws k (T.Ins (2000, "seam"));
    Ws.update ws k (T.Del (1500, 600))
  in
  let ws_r = Ws.create () and ws_f = Ws.create () in
  Mtext.init ws_r k_rope "seed";
  Ws.init ws_f k_flat "seed";
  script ws_r k_rope ~len:(fun () -> Mtext.length ws_r k_rope);
  script ws_f k_flat ~len:(fun () -> String.length (Ws.read ws_f k_flat));
  Alcotest.(check string) "documents agree" (Ws.read ws_f k_flat) (Mtext.get ws_r k_rope);
  Alcotest.(check string) "digests agree" (Ws.digest ws_f) (Ws.digest ws_r)

(* --- chunk-boundary fixtures ------------------------------------------------- *)

let assert_valid r label =
  match Rope.check r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invariant violated: %s" label msg

(* run an op list against a rope and a flat string model, validating the
   rope and comparing content after every step *)
let run_model label initial ops =
  let rope = ref (Rope.of_string initial) in
  let model = ref initial in
  List.iteri
    (fun i op ->
      (match op with
      | T.Ins (p, s) ->
        rope := Rope.insert !rope p s;
        model := String.sub !model 0 p ^ s ^ String.sub !model p (String.length !model - p)
      | T.Del (p, l) ->
        rope := Rope.delete !rope ~pos:p ~len:l;
        model := String.sub !model 0 p ^ String.sub !model (p + l) (String.length !model - p - l));
      let step = Printf.sprintf "%s[%d]" label i in
      assert_valid !rope step;
      if not (Rope.equal_string !rope !model) then
        Alcotest.failf "%s: content diverged (rope %d bytes, model %d bytes)" step
          (Rope.length !rope) (String.length !model))
    ops;
  !rope

let seam_fixtures () =
  (* a document big enough for several chunks, with recognizable bytes *)
  let doc = String.init 8192 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let c = Rope.target_chunk in
  let big = String.make (Rope.max_chunk + 700) 'I' in
  ignore
    (run_model "seam-ins" doc
       [ T.Ins (c, "xx") (* exactly on the first seam *)
       ; T.Ins (c - 1, "yy") (* one byte left of it *)
       ; T.Ins ((2 * c) + 1, big) (* oversized insert astride a seam *)
       ; T.Ins (0, "front")
       ; T.Ins (8192 + 2 + 2 + String.length big + 5, "back")
       ]);
  ignore
    (run_model "seam-del" doc
       [ T.Del (c, c) (* a whole chunk-sized span on the seam *)
       ; T.Del (c - 3, 7) (* small range astride the seam *)
       ; T.Del (0, 1)
       ; T.Del (8192 - (2 * c) - 8 - 1, 1)
       ]);
  (* delete everything in two crossing bites, then rebuild from empty *)
  let r = run_model "seam-drain" doc [ T.Del (100, 8000); T.Del (0, 192) ] in
  check_bool "drained empty" (Rope.is_empty r);
  ignore (run_model "seam-regrow" "" [ T.Ins (0, doc); T.Del (c / 2, 2 * c); T.Ins (17, big) ])

let edge_appends () =
  (* 10k single-byte appends — the pathological editing pattern for a
     naive tree: must stay balanced and within leaf bounds throughout *)
  let r = ref Rope.empty in
  for i = 0 to 9_999 do
    r := Rope.insert !r (Rope.length !r) (String.make 1 (Char.chr (Char.code 'a' + (i mod 26))))
  done;
  assert_valid !r "append-10k";
  let st = Rope.stats !r in
  Alcotest.(check int) "length after appends" 10_000 (Rope.length !r);
  check_bool "chunks bounded below" (st.Rope.chunks <= 10_000 / 2);
  check_bool "appends coalesce into large leaves"
    (st.Rope.chunks <= (10_000 / Rope.target_chunk * 4) + 4);
  (* and the mirror image: 2k prepends *)
  let l = ref Rope.empty in
  for _ = 1 to 2_000 do
    l := Rope.insert !l 0 "qq"
  done;
  assert_valid !l "prepend-2k";
  Alcotest.(check int) "length after prepends" 4_000 (Rope.length !l);
  check_bool "prepends stay shallow" ((Rope.stats !l).Rope.depth <= 24)

(* --- rebalance invariants under random load ---------------------------------- *)

let random_ops_invariants () =
  let rng = Rng.create ~seed:0x0FE11AL in
  let rope = ref (Rope.of_string "") in
  let model = Buffer.create 4096 in
  let model_str () = Buffer.contents model in
  for i = 1 to 10_000 do
    let n = Rope.length !rope in
    let ins = n = 0 || Rng.float rng < 0.6 in
    if ins then begin
      let pos = Rng.int rng ~bound:(n + 1) in
      let len = 1 + Rng.int rng ~bound:40 in
      let s = String.init len (fun _ -> Char.chr (Char.code 'a' + Rng.int rng ~bound:26)) in
      rope := Rope.insert !rope pos s;
      let m = model_str () in
      Buffer.clear model;
      Buffer.add_string model (String.sub m 0 pos);
      Buffer.add_string model s;
      Buffer.add_string model (String.sub m pos (String.length m - pos))
    end
    else begin
      let pos = Rng.int rng ~bound:n in
      let len = 1 + Rng.int rng ~bound:(min 64 (n - pos)) in
      rope := Rope.delete !rope ~pos ~len;
      let m = model_str () in
      Buffer.clear model;
      Buffer.add_string model (String.sub m 0 pos);
      Buffer.add_string model (String.sub m (pos + len) (String.length m - pos - len))
    end;
    if i mod 500 = 0 then begin
      assert_valid !rope (Printf.sprintf "random[%d]" i);
      if not (Rope.equal_string !rope (model_str ())) then
        Alcotest.failf "random[%d]: content diverged" i
    end
  done;
  assert_valid !rope "random-final";
  check_bool "final content agrees" (Rope.equal_string !rope (model_str ()));
  (* depth bound: height-balanced with sibling skew <= 2 means depth is
     within a small factor of log2(chunks) *)
  let st = Rope.stats !rope in
  let log2 x = int_of_float (ceil (log (float_of_int (max 2 x)) /. log 2.)) in
  check_bool
    (Printf.sprintf "depth %d logarithmic in %d chunks" st.Rope.depth st.Rope.chunks)
    (st.Rope.depth <= (2 * log2 st.Rope.chunks) + 4);
  check_bool "no oversized leaf" (st.Rope.max_leaf <= Rope.max_chunk);
  check_bool "no empty leaf" (st.Rope.min_leaf >= 1);
  (* a straight rebuild of the same content is equal, chunking aside *)
  check_bool "boundary-independent equality"
    (Rope.equal !rope (Rope.of_string (model_str ())))

(* split/join round-trips at and around every kind of boundary *)
let split_join_roundtrip () =
  let doc = String.init 5000 (fun i -> Char.chr (Char.code 'A' + (i mod 26))) in
  let r = Rope.of_string doc in
  List.iter
    (fun i ->
      let a, b = Rope.split r i in
      assert_valid a (Printf.sprintf "split-left@%d" i);
      assert_valid b (Printf.sprintf "split-right@%d" i);
      Alcotest.(check int) "split lengths" 5000 (Rope.length a + Rope.length b);
      let j = Rope.join a b in
      assert_valid j (Printf.sprintf "join@%d" i);
      check_bool "join restores content" (Rope.equal_string j doc))
    [ 0; 1; Rope.target_chunk - 1; Rope.target_chunk; Rope.target_chunk + 1
    ; Rope.max_chunk; 2500; 4999; 5000 ];
  (* sub addresses slices without disturbing the rope *)
  Alcotest.(check string) "sub mid" (String.sub doc 1000 300) (Rope.sub r 1000 300);
  Alcotest.(check string) "sub whole" doc (Rope.sub r 0 5000)

(* the deep-copy model's copies (Ref_copy, a Marshal round-trip) are
   content-equal, structurally valid, and share no chunk string with the
   source *)
let copy_freshness () =
  let r = Rope.of_string (String.make 5000 'x') in
  let c = Sm_check.Ref_copy.deep_copy r in
  check_bool "copy equal" (Rope.equal r c);
  assert_valid c "copy";
  let srcs = ref [] in
  Rope.iter_chunks (fun s -> srcs := s :: !srcs) r;
  Rope.iter_chunks (fun s -> check_bool "chunk not shared" (not (List.memq s !srcs))) c

let suite =
  [ Alcotest.test_case "differential: enumerated ops" `Quick enumerated_ops_differential
  ; Alcotest.test_case "differential: enumerated sequences + compact" `Quick
      enumerated_sequences_differential
  ; Alcotest.test_case "differential: enumerated transforms (TP1 across reps)" `Quick
      enumerated_transforms_differential
  ; Alcotest.test_case "differential: workspace digests agree" `Quick workspace_digest_invariant
  ; Alcotest.test_case "fixtures: chunk-seam inserts and deletes" `Quick seam_fixtures
  ; Alcotest.test_case "fixtures: 10k edge appends stay balanced" `Quick edge_appends
  ; Alcotest.test_case "invariants: 10k random ops" `Quick random_ops_invariants
  ; Alcotest.test_case "invariants: split/join round-trips" `Quick split_join_roundtrip
  ; Alcotest.test_case "invariants: copies are fresh" `Quick copy_freshness
  ]
