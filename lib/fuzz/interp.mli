(** The fuzz-program interpreter: runs a {!Sm_ir.Program.t} against the real
    Spawn/Merge runtime.

    Interpretation is {e total} and, for programs without any-merges,
    {e deterministic}: payload integers are reduced modulo the current
    state's bounds (list length, live-child count, tree arity), guards skip
    steps whose preconditions do not hold ([Sync] in the root, [Clone] from
    a non-pristine task, [Abort] with no live children), and every script
    ends with an explicit MergeAll loop so no children are left to the
    implicit merge — which keeps DetSan-clean a valid oracle. *)

(** The nine workspace keys a fuzz program operates on.  Keys are minted
    once per keyset (never inside a run — re-minting per run is the exact
    hazard DetSan flags) and key {e names} are fixed, so digests of runs
    over different keysets are comparable — the differential oracle merges
    that fact with {!Sm_check.Mutate.wrap_data}'s name-preservation. *)
module Keyset : sig
  type t

  type wrap =
    { wrap :
        's 'o.
        (module Sm_mergeable.Data.S with type state = 's and type op = 'o) ->
        (module Sm_mergeable.Data.S with type state = 's and type op = 'o)
    }
  (** A transformation applied to each of the nine [Data] modules. *)

  type text =
    (module Sm_mergeable.Data.S
       with type state = Sm_ot.Op_text.state
        and type op = Sm_ot.Op_text.op)

  val make : ?wrap:wrap -> ?text:text -> unit -> t
  (** Mint a fresh keyset: [text] (default {!Sm_mergeable.Mtext.Data})
      replaces the text module, then [wrap] (default identity) is applied
      to all nine.  Mint once, outside any run. *)

  val default : unit -> t
  (** The clean keyset (memoized). *)

  val mutated : Sm_check.Mutate.kind -> t
  (** A keyset whose nine [Data] modules carry the mutated transform
      (memoized per kind). *)

  val detached_wrap : wrap
  (** {!Sm_check.Ref_copy.detached}: every apply checked against the
      deep-copy model. *)

  val detached : unit -> t
  (** [make ~wrap:detached_wrap ()] (memoized) — the [cow] oracle's
      keyset. *)

  val flat_checked : unit -> t
  (** The text module wrapped by {!Sm_check.Ref_text.checked}, every text
      apply replayed on the flat-string model (memoized) — the [rope]
      oracle's keyset. *)

  val counter_value : Sm_mergeable.Workspace.t -> t -> int
  (** The fuzz counter's current value — what generated [?validate]
      predicates judge. *)

  val queue_value : Sm_mergeable.Workspace.t -> t -> int list
  (** The fuzz queue's current value, front first — lets tests pin merge
      serialization order (the [queue-push-order] known issue) through the
      fuzz interpreter. *)
end

val init : Keyset.t -> Sm_mergeable.Workspace.t -> unit
(** Bind all nine keys to canonical initial states (root task only). *)

val run : ?task_budget:int -> Keyset.t -> Sm_ir.Program.t -> Sm_core.Runtime.ctx -> unit
(** Initialize the workspace and execute script 0 as the given task.
    [task_budget] (default 256) is a hard cap on spawned+cloned tasks — a
    backstop for hand-written [--program] inputs; generator output stays far
    below it, so the cap never perturbs a generated run. *)
