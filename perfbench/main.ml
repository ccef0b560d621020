(* One round of one workload, as a process of its own so that its heap and
   GC figures are its alone.  run.py starts the rounds and aggregates them.

     main.exe round --workload W --seed N --trace 0|1 --spans 0|1 [--reference D]
       runs one round and prints its outcome as one JSON line; --spans 1
       writes a traced round's spans to .perfbench/spans-W-N.tsv.  Flags
       take a value even when off, so that every round of an invocation
       starts from the same argv — and the same heap, which keeps the
       allocation figures identical across rounds.
     main.exe reference --seed N
       prints the lock-based simulation's event digest for spawn-sim.

   Exit code: 0 when every output check passed, 1 when one failed, 2 on
   usage errors. *)

open Perfbench_core

let usage () =
  prerr_endline
    "usage: main.exe round --workload collab-edit|collab-follow|spawn-sim --seed N --trace 0|1 \
     --spans 0|1 [--reference DIGEST]\n\
    \       main.exe reference --seed N";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let seed () =
    match Option.bind (opt "--seed" args) Int64.of_string_opt with
    | Some s -> s
    | None -> usage ()
  in
  match args with
  | "reference" :: _ -> print_endline (Spawnsim.reference ~seed:(seed ()))
  | "round" :: _ ->
    let traced = opt "--trace" args = Some "1" in
    let seed = seed () in
    let workload = Option.value (opt "--workload" args) ~default:"" in
    let lanes = if workload = "spawn-sim" then (Spawnsim.config ~seed).hosts + 1 else 1 in
    if traced then begin
      Sm_obs.Metrics.set_enabled true;
      Trace.enable ~lanes
    end;
    let outcome =
      match workload with
      | "collab-edit" | "collab-follow" ->
        let cfg = if workload = "collab-edit" then Collab.collab_edit else Collab.collab_follow in
        let o, _, _ = Collab.run ~traced cfg ~seed in
        o
      | "spawn-sim" -> (
        match opt "--reference" args with
        | Some reference -> Spawnsim.run ~traced ~seed ~reference ()
        | None -> usage ())
      | _ -> usage ()
    in
    if traced && opt "--spans" args = Some "1" then
      Trace.write_spans (Printf.sprintf ".perfbench/spans-%s-%Ld.tsv" workload seed);
    print_endline (Sm_obs.Json.to_string (Outcome.to_json outcome));
    exit (if Outcome.passed outcome then 0 else 1)
  | _ -> usage ()
