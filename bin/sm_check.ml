(* sm-check — static/dynamic analysis gate for the OT substrate.

     sm-check ot --all                      # verify the whole transform matrix
     sm-check ot --type mtext --depth 2     # one module, bigger budget
     sm-check ot --type mlist --mutate tie-bias   # prove the checker catches bugs
     sm-check detsan                        # determinism-hazard smoke on built-in scenarios
     sm-check detsan --scenario nondet --expect-hazards
     sm-check list                          # what can be checked

   Exit codes distinguish new failures from expected ones:

     0  clean — every gate passed with nothing surfaced
     1  NEW failure — an unexpected violation or hazard (with --mutate, a
        mutation the checker FAILED to catch; with --expect-hazards, the
        absence of any hazard)
     2  usage
     3  expected failure surfaced — a registry known-issue counterexample
        (XFAIL), a caught --mutate bug, or --expect-hazards seeing hazards

   CI distinguishes them with `cmd; test $? = 3` — a 3 is green for jobs
   that exercise known issues or seeded bugs, a 1 never is. *)

module Check = Sm_check
module Rt = Sm_core.Runtime

let die fmt = Format.kasprintf (fun msg -> prerr_endline ("sm-check: " ^ msg); exit 2) fmt

(* --- ot ------------------------------------------------------------------- *)

let run_entry ~depth ~mutation entry =
  let t0 = Unix.gettimeofday () in
  let report = Check.Registry.run ?mutation ~depth entry in
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "%a  (%.2fs)@." Check.Report.pp report dt;
  report

let ot all types depth mutation =
  let mutation =
    match mutation with
    | None -> None
    | Some m -> (
      match Check.Mutate.of_string m with
      | Some k -> Some k
      | None ->
        die "unknown mutation %S (have: %s)" m
          (String.concat ", " (List.map Check.Mutate.to_string Check.Mutate.all)))
  in
  let entries =
    if all then Check.Registry.all ()
    else if types = [] then
      die "nothing to check: pass --all or --type NAME (have: %s)"
        (String.concat ", " (Check.Registry.names ()))
    else
      List.map
        (fun t ->
          match Check.Registry.find t with
          | Some e -> e
          | None -> die "unknown type %S (have: %s)" t (String.concat ", " (Check.Registry.names ())))
        types
  in
  let reports = List.map (run_entry ~depth ~mutation) entries in
  let failed = List.filter (fun r -> not (Check.Report.passed r)) reports in
  let cases = List.fold_left (fun acc (r : Check.Report.t) -> acc + Check.Report.total r.counts) 0 reports in
  Format.printf "@.%d module%s, %d cases, %d violation%s%s@."
    (List.length reports)
    (if List.length reports = 1 then "" else "s")
    cases (List.length failed)
    (if List.length failed = 1 then "" else "s")
    (match mutation with
    | None -> ""
    | Some m -> Printf.sprintf " (transform mutated: %s)" (Check.Mutate.to_string m));
  match mutation with
  | Some _ ->
    (* Inverted gate: catching the seeded bug is the point.  Every module
       must fail; a module that still passes means the checker missed it. *)
    let uncaught = List.filter Check.Report.passed reports in
    if uncaught <> [] then begin
      List.iter
        (fun (r : Check.Report.t) -> Format.printf "mutation NOT caught by %s@." r.Check.Report.name)
        uncaught;
      exit 1
    end;
    exit 3
  | None ->
    if failed <> [] then exit 1;
    let xfailed =
      List.exists
        (fun (r : Check.Report.t) ->
          match r.Check.Report.verdict with Check.Report.Fail _ -> true | Check.Report.Pass -> false)
        reports
    in
    if xfailed then exit 3

(* --- detsan ---------------------------------------------------------------- *)

(* Built-in scenarios: one clean program and one per hazard class.  They use
   module-level keys (the clean pattern) except where the hazard *is* the
   key minting. *)
let counter_key = Sm_mergeable.Mcounter.key ~name:"detsan.counter"

let clean_program ctx =
  let ws = Rt.workspace ctx in
  Sm_mergeable.Workspace.init ws counter_key 0;
  let h1 = Rt.spawn ctx (fun c -> Sm_mergeable.Mcounter.incr (Rt.workspace c) counter_key) in
  let h2 = Rt.spawn ctx (fun c -> Sm_mergeable.Mcounter.add (Rt.workspace c) counter_key 2) in
  Rt.merge_all_from_set ctx [ h1; h2 ]

let nondet_program ctx =
  let ws = Rt.workspace ctx in
  Sm_mergeable.Workspace.init ws counter_key 0;
  let _h1 = Rt.spawn ctx (fun c -> Sm_mergeable.Mcounter.incr (Rt.workspace c) counter_key) in
  let _h2 = Rt.spawn ctx (fun c -> Sm_mergeable.Mcounter.incr (Rt.workspace c) counter_key) in
  ignore (Rt.merge_any ctx);
  Rt.merge_all ctx

let key_in_task_program ctx =
  let ws = Rt.workspace ctx in
  (* the pitfall detcheck.mli documents: a key minted per run *)
  let fresh = Sm_mergeable.Mcounter.key ~name:"detsan.fresh" in
  Sm_mergeable.Workspace.init ws fresh 41;
  Sm_mergeable.Mcounter.incr ws fresh

let unmerged_program ctx =
  let ws = Rt.workspace ctx in
  Sm_mergeable.Workspace.init ws counter_key 0;
  ignore (Rt.spawn ctx (fun c -> Sm_mergeable.Mcounter.incr (Rt.workspace c) counter_key))
(* no merge: the implicit MergeAll picks it up *)

let post_digest_program ctx =
  let ws = Rt.workspace ctx in
  Sm_mergeable.Workspace.init ws counter_key 0;
  let _premature = Sm_mergeable.Workspace.digest ws in
  Sm_mergeable.Mcounter.incr ws counter_key

let scenarios =
  [ ("clean", "deterministic spawn/merge_all program — expect no hazards", clean_program)
  ; ("nondet", "merge_any on a digested path", nondet_program)
  ; ("key-in-task", "workspace key minted inside the run", key_in_task_program)
  ; ("unmerged", "children left to the implicit MergeAll", unmerged_program)
  ; ("post-digest", "operation recorded after digesting", post_digest_program)
  ]

let detsan scenario expect_hazards list_scenarios =
  if list_scenarios then
    List.iter (fun (n, doc, _) -> Format.printf "%-12s %s@." n doc) scenarios
  else begin
    let name, _, program =
      match List.find_opt (fun (n, _, _) -> String.equal n scenario) scenarios with
      | Some s -> s
      | None ->
        die "unknown scenario %S (have: %s)" scenario
          (String.concat ", " (List.map (fun (n, _, _) -> n) scenarios))
    in
    let hazards, digest = Check.Detsan.run program in
    Format.printf "scenario %s: digest %s, %d hazard%s@." name digest (List.length hazards)
      (if List.length hazards = 1 then "" else "s");
    List.iter (fun h -> Format.printf "  [%s] %a@." (Check.Detsan.hazard_tag h) Check.Detsan.pp_hazard h) hazards;
    match (expect_hazards, hazards) with
    | false, [] -> ()
    | false, _ :: _ -> exit 1
    | true, [] ->
      Format.printf "expected hazards but the sanitizer reported none@.";
      exit 1
    | true, _ :: _ -> exit 3 (* the expected failure surfaced *)
  end

(* --- list ------------------------------------------------------------------ *)

let list_types () =
  List.iter (fun n -> print_endline n) (Check.Registry.names ());
  Format.printf "@.mutations: %s@."
    (String.concat ", " (List.map Check.Mutate.to_string Check.Mutate.all));
  Format.printf "properties:@.";
  List.iter
    (fun p ->
      Format.printf "  %-18s %s@." (Check.Report.property_name p) (Check.Report.property_doc p))
    [ Check.Report.Tp1
    ; Check.Report.Cross
    ; Check.Report.Merge_order
    ; Check.Report.Merge_nested
    ; Check.Report.Compact
    ; Check.Report.Persistence
    ]

(* --- cmdliner -------------------------------------------------------------- *)

open Cmdliner

let exits =
  [ Cmd.Exit.info 0 ~doc:"clean — every gate passed"
  ; Cmd.Exit.info 1 ~doc:"new failure — unexpected violation/hazard, or a mutation not caught"
  ; Cmd.Exit.info 2 ~doc:"usage error"
  ; Cmd.Exit.info 3
      ~doc:"expected failure surfaced — known-issue XFAIL, caught --mutate bug, or \
            --expect-hazards hazards"
  ]

let depth_arg =
  Arg.(
    value & opt int 2
    & info [ "depth" ] ~docv:"N"
        ~doc:"Size budget: container sizes up to N+1 are enumerated. Depth 2 is the exhaustive \
              default; 1 is the CI-sized budget.")

let ot_cmd =
  let all_arg = Arg.(value & flag & info [ "all" ] ~doc:"Check every registered op module.") in
  let type_arg =
    Arg.(
      value & opt_all string []
      & info [ "type"; "t" ] ~docv:"NAME" ~doc:"Op module to check (repeatable); see sm-check list.")
  in
  let mutate_arg =
    Arg.(
      value & opt (some string) None
      & info [ "mutate" ] ~docv:"KIND"
          ~doc:"Run against a deliberately mutated transform: expect exit 1 with a minimized \
                counterexample (known-issue exemptions do not apply).")
  in
  Cmd.v
    (Cmd.info "ot" ~exits
       ~doc:"Verify TP1, cross-convergence, merge serialization and totality for op modules, \
             with minimized counterexamples.")
    Term.(const ot $ all_arg $ type_arg $ depth_arg $ mutate_arg)

let detsan_cmd =
  let scenario_arg =
    Arg.(
      value & opt string "clean"
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Built-in program to sanitize; see --list.")
  in
  let expect_arg =
    Arg.(
      value & flag
      & info [ "expect-hazards" ] ~doc:"Invert the gate: exit 0 iff hazards are reported.")
  in
  let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List built-in scenarios.") in
  Cmd.v
    (Cmd.info "detsan" ~exits
       ~doc:"Run a program under the determinism sanitizer and report hazards with task \
             provenance.")
    Term.(const detsan $ scenario_arg $ expect_arg $ list_arg)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List checkable types, mutations and properties.")
    Term.(const list_types $ const ())

let () =
  let info =
    Cmd.info "sm-check" ~version:"%%VERSION%%" ~exits
      ~doc:"OT correctness checker and determinism sanitizer for Spawn/Merge."
  in
  exit (Cmd.eval (Cmd.group info [ ot_cmd; detsan_cmd; list_cmd ]))
