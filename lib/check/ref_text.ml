module T = Sm_ot.Op_text

type state = string
type op = T.op

let flat_apply s op =
  let n = String.length s in
  match op with
  | T.Ins (pos, t) ->
    if pos < 0 || pos > n then
      invalid_arg (Printf.sprintf "Op_text.apply: ins position %d out of range (len %d)" pos n);
    let tl = String.length t in
    let b = Bytes.create (n + tl) in
    Bytes.blit_string s 0 b 0 pos;
    Bytes.blit_string t 0 b pos tl;
    Bytes.blit_string s pos b (pos + tl) (n - pos);
    Bytes.unsafe_to_string b
  | T.Del (pos, len) ->
    if len <= 0 then invalid_arg "Op_text.apply: non-positive delete length";
    if pos < 0 || pos + len > n then
      invalid_arg
        (Printf.sprintf "Op_text.apply: del range [%d,%d) out of range (len %d)" pos (pos + len) n);
    let b = Bytes.create (n - len) in
    Bytes.blit_string s 0 b 0 pos;
    Bytes.blit_string s (pos + len) b pos (n - pos - len);
    Bytes.unsafe_to_string b

let apply = flat_apply
let transform = T.transform
let compact = T.compact
let commutes = T.commutes
let equal_state = String.equal
let pp_state ppf s = Format.fprintf ppf "%S" s
let pp_op = T.pp_op

exception Divergence of string

let checked (module D : Sm_mergeable.Data.S with type state = T.state and type op = T.op) :
    (module Sm_mergeable.Data.S with type state = T.state and type op = T.op) =
  (module struct
    include D

    let apply r op =
      let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      let flat = outcome (fun () -> flat_apply (T.to_string r) op) in
      let rope = outcome (fun () -> D.apply r op) in
      let diverge fmt =
        Format.kasprintf
          (fun d -> raise (Divergence (Format.asprintf "%s.apply %a: %s" D.type_name T.pp_op op d)))
          fmt
      in
      match (flat, rope) with
      | Ok s, Ok r' ->
        if not (Sm_ot.Rope.equal_string r' s) then
          diverge "rope gives %S, flat model %S" (T.to_string r') s;
        let shown = Format.asprintf "%a" D.pp_state r' in
        let flat_shown = Printf.sprintf "%S" s in
        if not (String.equal shown flat_shown) then
          diverge "rope renders as %s, flat model as %s" shown flat_shown;
        (match Sm_ot.Rope.check r' with Ok () -> () | Error e -> diverge "rope invariant: %s" e);
        r'
      | Error m, Error m' when String.equal m m' -> invalid_arg m
      | Error m, Ok r' -> diverge "rope gives %S, flat model raises %S" (T.to_string r') m
      | Ok s, Error m -> diverge "rope raises %S, flat model gives %S" m s
      | Error m, Error m' -> diverge "rope raises %S, flat model raises %S" m' m
  end)
