(* What one round of a workload reports: its metrics, the counts that must
   repeat exactly across rounds, a digest of its final content, and the
   output checks it ran. *)

type check =
  { name : string
  ; ok : bool
  ; detail : string
  }

type t =
  { metrics : (string * float) list
  ; det : (string * int) list
      (* deterministic counts: identical across rounds of one seed *)
  ; content : string  (* digest of the final contents: identical across rounds *)
  ; setups : float list  (* every set-up time the round measured, in s *)
  ; checks : check list
  ; attempted : int
  ; failed : int
  }

let check name ok detail = { name; ok; detail = (if ok then "" else detail) }

let passed o = List.for_all (fun c -> c.ok) o.checks

let to_json o =
  let open Sm_obs.Json in
  Obj
    [ ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) o.metrics))
    ; ("det", Obj (List.map (fun (k, v) -> (k, Int v)) o.det))
    ; ("content", String o.content)
    ; ("setups", List (List.map (fun x -> Float x) o.setups))
    ; ( "checks"
      , List
          (List.map
             (fun c -> Obj [ ("name", String c.name); ("ok", Bool c.ok); ("detail", String c.detail) ])
             o.checks) )
    ; ("attempted", Int o.attempted)
    ; ("failed", Int o.failed)
    ]

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6
