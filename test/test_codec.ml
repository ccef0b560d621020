(* Binary codecs: pinned wire bytes plus roundtrip properties for every
   combinator, and malformed-input rejection. *)

open Test_support
module C = Sm_util.Codec

let roundtrip c v = C.decode c (C.encode c v) = v

let pinned_encodings () =
  Alcotest.(check string) "zero int" "\x00" (C.encode C.int 0);
  Alcotest.(check string) "one is zigzagged" "\x02" (C.encode C.int 1);
  Alcotest.(check string) "minus one" "\x01" (C.encode C.int (-1));
  Alcotest.(check string) "varint spill" "\x80\x02" (C.encode C.int 128);
  Alcotest.(check string) "string" "\x03abc" (C.encode C.string "abc");
  Alcotest.(check string) "bool" "\x01" (C.encode C.bool true);
  Alcotest.(check string) "unit is empty" "" (C.encode C.unit ());
  Alcotest.(check string) "list" "\x02\x02\x04" (C.encode (C.list C.int) [ 1; 2 ])

let malformed_inputs () =
  let rejects name c s =
    check_bool name (match C.decode c s with _ -> false | exception C.Decode_error _ -> true)
  in
  rejects "truncated varint" C.int "\x80";
  rejects "truncated string" C.string "\x05ab";
  rejects "bad bool" C.bool "\x07";
  rejects "trailing garbage" C.int "\x00\x00";
  rejects "empty input for int" C.int "";
  rejects "negative-ish huge list" (C.list C.int) "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"

let int_roundtrip =
  qtest ~count:1000 "int roundtrip" QCheck2.Gen.int (fun v -> roundtrip C.int v)

let int64_roundtrip =
  qtest ~count:1000 "int64 roundtrip"
    QCheck2.Gen.(map Int64.of_int int)
    (fun v -> roundtrip C.int64 v)

let extremes () =
  check_bool "max_int" (roundtrip C.int max_int);
  check_bool "min_int" (roundtrip C.int min_int);
  check_bool "int64 min" (roundtrip C.int64 Int64.min_int);
  check_bool "int64 max" (roundtrip C.int64 Int64.max_int);
  check_bool "nan" (Int64.bits_of_float (C.decode C.float (C.encode C.float Float.nan))
                    = Int64.bits_of_float Float.nan);
  check_bool "neg zero" (roundtrip C.float (-0.0));
  check_bool "infinity" (roundtrip C.float Float.infinity)

let float_roundtrip =
  qtest ~count:500 "float roundtrip" QCheck2.Gen.float (fun v -> roundtrip C.float v)

let string_roundtrip =
  qtest ~count:500 "string roundtrip (arbitrary bytes)" QCheck2.Gen.string (fun v ->
      roundtrip C.string v)

let composite_roundtrip =
  let codec =
    C.triple (C.list (C.pair C.int C.string)) (C.option C.bool) (C.array C.int64)
  in
  let gen =
    QCheck2.Gen.(
      triple
        (list (pair int string))
        (option bool)
        (map (fun l -> Array.of_list (List.map Int64.of_int l)) (list int)))
  in
  qtest ~count:300 "nested composite roundtrip" gen (fun v -> roundtrip codec v)

(* the wire messages themselves *)
let wire_roundtrip () =
  let module W = Sm_dist.Wire in
  let entries = [ (0, "\x00\xffpayload"); (3, "") ] in
  let msgs_down =
    [ W.Spawn { uid = 7; task = "worker"; argument = "a:b"; snapshot = entries }
    ; W.Reply { uid = 99; granted = false; snapshot = [] }
    ; W.Stop
    ]
  in
  List.iter
    (fun m -> check_bool "down roundtrip" (C.decode W.down_codec (C.encode W.down_codec m) = m))
    msgs_down;
  let msgs_up =
    [ W.Sync_request { uid = 1; journal = entries }
    ; W.Task_completed { uid = 2; journal = [] }
    ; W.Task_failed { uid = 3; reason = "boom" }
    ]
  in
  List.iter
    (fun m -> check_bool "up roundtrip" (C.decode W.up_codec (C.encode W.up_codec m) = m))
    msgs_up

(* codable data: ops and states survive the wire *)
let codable_roundtrips () =
  let module L = Sm_dist.Codable.Make_list (Sm_dist.Codable.String_elt) in
  check_bool "list state" (roundtrip L.state_codec [ "a"; ""; "\x00z" ]);
  check_bool "list op ins" (roundtrip L.op_codec (L.Op.ins 3 "x"));
  check_bool "list op del" (roundtrip L.op_codec (L.Op.del 0));
  check_bool "list op set" (roundtrip L.op_codec (L.Op.set 2 "y"));
  let module Q = Sm_dist.Codable.Make_queue (Sm_dist.Codable.Int_elt) in
  check_bool "queue ops" (roundtrip (C.list Q.op_codec) [ Q.Op.push 4; Q.Op.pop; Q.Op.push 5 ]);
  let module R = Sm_dist.Codable.Make_register (Sm_dist.Codable.String_elt) in
  check_bool "register op" (roundtrip R.op_codec (R.Op.assign "v"));
  let module M = Sm_dist.Codable.Make_map (Sm_dist.Codable.String_elt) (Sm_dist.Codable.Int_elt) in
  (* maps compare by bindings: tree shapes may legitimately differ *)
  let m = M.Op.Key_map.(empty |> add "k" 1 |> add "j" 2) in
  check_bool "map state"
    (M.Op.Key_map.equal Int.equal m (C.decode M.state_codec (C.encode M.state_codec m)));
  check_bool "map ops" (roundtrip (C.list M.op_codec) [ M.Op.put "a" 1; M.Op.remove "b" ]);
  check_bool "counter op" (roundtrip Sm_dist.Codable.Counter.op_codec (Sm_ot.Op_counter.add (-3)));
  check_bool "text ops"
    (roundtrip (C.list Sm_dist.Codable.Text.op_codec)
       [ Sm_ot.Op_text.ins 0 "ab"; Sm_ot.Op_text.del ~pos:1 ~len:2 ])

(* The packed text-journal codec: delta-encoded positions under a zigzag
   uvarint, negotiated by the frame version.  Golden vectors pin the exact
   bytes so the format can never drift silently — v3 frames must decode
   forever, like v1/v2 before them. *)
let packed_golden_vectors () =
  let j = Sm_dist.Codable.Text.journal_codec in
  let pin name bytes ops =
    Alcotest.(check string) name bytes (C.encode j ops);
    check_bool (name ^ " decodes") (C.decode j bytes = ops)
  in
  pin "empty journal" "\x00" [];
  pin "single ins at origin" "\x01\x00\x02ab" [ Sm_ot.Op_text.Ins (0, "ab") ];
  pin "single del" "\x01\x0d\x02" [ Sm_ot.Op_text.Del (3, 2) ];
  pin "ins then backward del (negative delta)" "\x02\x14\x01x\x03\x02"
    [ Sm_ot.Op_text.Ins (5, "x"); Sm_ot.Op_text.Del (4, 2) ];
  (* uvarint spill on the header once positions pass 63 *)
  let enc = C.encode j [ Sm_ot.Op_text.Ins (64, "z") ] in
  Alcotest.(check string) "multi-byte header" "\x01\x80\x02\x01z" enc

let packed_rejects_malformed () =
  let j = Sm_dist.Codable.Text.journal_codec in
  let rejects name s =
    check_bool name (match C.decode j s with _ -> false | exception C.Decode_error _ -> true)
  in
  rejects "truncated op count" "\x02\x00\x02ab";
  rejects "truncated ins payload" "\x01\x00\x05ab";
  rejects "truncated header varint" "\x01\x80";
  rejects "negative position" "\x01\x02\x01x";
  rejects "zero-length delete" "\x01\x0d\x00";
  rejects "trailing garbage" "\x00\x00"

(* 500 random sequential journals survive the packed codec byte-for-byte,
   and never encode larger than a tagged op list ([C.list op_codec]). *)
let packed_random_roundtrip () =
  let module T = Sm_ot.Op_text in
  let module Rng = Sm_util.Det_rng in
  let j = Sm_dist.Codable.Text.journal_codec in
  let tagged = C.list Sm_dist.Codable.Text.op_codec in
  let rng = Rng.create ~seed:0xC0DECL in
  for _ = 1 to 500 do
    let len = ref (Rng.int rng ~bound:200) in
    let nops = Rng.int rng ~bound:12 in
    let ops =
      List.init nops (fun _ ->
          if !len = 0 || Rng.bool rng then begin
            let pos = Rng.int rng ~bound:(!len + 1) in
            let s = Rng.bytes rng ~len:(1 + Rng.int rng ~bound:8) in
            len := !len + String.length s;
            T.Ins (pos, s)
          end
          else begin
            let pos = Rng.int rng ~bound:!len in
            let l = 1 + Rng.int rng ~bound:(!len - pos) in
            len := !len - l;
            T.Del (pos, l)
          end)
    in
    check_bool "packed roundtrip" (roundtrip j ops);
    check_bool "packed no larger than a tagged op list + slack"
      (String.length (C.encode j ops) <= String.length (C.encode tagged ops) + 1)
  done

let suite =
  [ Alcotest.test_case "pinned encodings" `Quick pinned_encodings
  ; Alcotest.test_case "malformed inputs rejected" `Quick malformed_inputs
  ; int_roundtrip
  ; int64_roundtrip
  ; Alcotest.test_case "extreme values" `Quick extremes
  ; float_roundtrip
  ; string_roundtrip
  ; composite_roundtrip
  ; Alcotest.test_case "wire message roundtrips" `Quick wire_roundtrip
  ; Alcotest.test_case "codable data roundtrips" `Quick codable_roundtrips
  ; Alcotest.test_case "packed text journal: golden vectors" `Quick packed_golden_vectors
  ; Alcotest.test_case "packed text journal: malformed rejected" `Quick packed_rejects_malformed
  ; Alcotest.test_case "packed text journal: 500 random roundtrips" `Quick packed_random_roundtrip
  ]
