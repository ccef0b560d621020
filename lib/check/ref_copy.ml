let image v = Marshal.to_string v []
let deep_copy v : 'a = Marshal.from_string (image v) 0
let size_bytes v = Obj.reachable_words (Obj.repr v) * 8

exception Mutated_input of string

let detached (type s o) (module D : Sm_mergeable.Data.S with type state = s and type op = o) :
    (module Sm_mergeable.Data.S with type state = s and type op = o) =
  (module struct
    include D

    let apply s op =
      let before = image s in
      let copy = deep_copy s in
      let result = D.apply s op in
      let fail what =
        raise
          (Mutated_input
             (Format.asprintf "%s.apply %a %s" D.type_name D.pp_op op what))
      in
      if not (String.equal (image s) before) then fail "mutated its input";
      if not (D.equal_state result (D.apply copy op)) then
        fail "gives a different result on a deep copy of its input";
      result
  end)
