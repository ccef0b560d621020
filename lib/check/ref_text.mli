(** The paper's flat-string model of {!Sm_ot.Op_text}, kept as a test-side
    reference for the rope.

    [apply] is the O(n) splice the rope replaced, with byte-identical
    [Invalid_argument] messages; [transform], [compact] and [commutes] are
    {!Sm_ot.Op_text}'s own, which work on operations only. *)

include Sm_ot.Op_sig.S with type state = string and type op = Sm_ot.Op_text.op

exception Divergence of string
(** Raised by {!checked}'s [apply]: the message names the operation and
    both outcomes. *)

val checked :
  (module Sm_mergeable.Data.S
     with type state = Sm_ot.Op_text.state
      and type op = Sm_ot.Op_text.op) ->
  (module Sm_mergeable.Data.S
     with type state = Sm_ot.Op_text.state
      and type op = Sm_ot.Op_text.op)
(** The same text data module, whose [apply] replays every operation on
    the flattened input with the flat model and raises {!Divergence} unless
    both give the same bytes (or raise the same message), the same
    [pp_state] rendering, and a rope that passes {!Sm_ot.Rope.check}.
    [type_name] is unchanged, so workspace digests stay comparable. *)
