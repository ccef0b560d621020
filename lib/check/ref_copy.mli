(** The paper's deep-copy model of Spawn, kept as a test-side reference.

    The runtime never copies a state: workspaces alias persistent
    snapshots at spawn, clone and merge (copy-on-write).  An alias is as
    private as the paper's deep copy exactly when no [apply] mutates its
    input, so this module provides the copy itself (for baselines) and a
    wrapper that checks that premise on every apply. *)

val image : 'a -> string
(** The value's [Marshal] image — equal images mean structurally equal
    values with the same internal sharing.  States hold no closures. *)

val deep_copy : 'a -> 'a
(** A structurally fresh copy: a [Marshal] round-trip. *)

val size_bytes : 'a -> int
(** Heap footprint in bytes: [Obj.reachable_words] times 8 (the word size
    on 64-bit runtimes). *)

exception Mutated_input of string
(** Raised by {!detached}'s [apply]: the message names the type and the
    operation. *)

val detached :
  (module Sm_mergeable.Data.S with type state = 's and type op = 'o) ->
  (module Sm_mergeable.Data.S with type state = 's and type op = 'o)
(** The same mergeable data module, whose [apply s op] also replays [op] on
    [deep_copy s] and raises {!Mutated_input} if [s]'s {!image} changed or
    the two results differ ([equal_state]).  It returns the result computed
    on [s].  [type_name] is unchanged, so workspace digests of wrapped and
    clean runs stay comparable. *)
