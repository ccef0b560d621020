(** Shared fixtures for the test suites. *)

module Int_elt = struct
  type t = int

  let equal = Int.equal
  let compare = Int.compare
  let pp = Format.pp_print_int
end

module Str_elt = struct
  type t = string

  let equal = String.equal
  let compare = String.compare
  let pp ppf s = Format.fprintf ppf "%S" s
end

(* Wrap a QCheck property as an alcotest case with a deterministic seed so
   failures reproduce. *)
let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck2.Test.make ~count ~name gen prop)

let check_bool name b = Alcotest.(check bool) name true b

(* A frame in a layout this build no longer speaks, built byte by byte:
   version 1 was magic, u16 version, kind byte, u32 payload length,
   payload; version 2 added a u8 context length (0 here) before the
   payload.  Kind tags: 0 control, 1 delta, 2 snapshot. *)
let pre_v3_frame ~version ~kind payload =
  let n = String.length payload in
  let ctx_slot = if version >= 2 then 1 else 0 in
  let b = Bytes.create (9 + ctx_slot + n) in
  Bytes.blit_string "SM" 0 b 0 2;
  Bytes.set_uint16_be b 2 version;
  Bytes.set_uint8 b 4 kind;
  Bytes.set_int32_be b 5 (Int32.of_int n);
  if ctx_slot = 1 then Bytes.set_uint8 b 9 0;
  Bytes.blit_string payload 0 b (9 + ctx_slot) n;
  Bytes.to_string b

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0
