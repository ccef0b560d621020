(* Distributed Spawn/Merge — the paper's Section VI future work ("apply the
   concept of Spawn and Merge to distributed computing by using MPI"),
   realized over simulated ranks: every node is a domain reachable only
   through byte channels; task names, arguments, states and operation
   journals are the only things on the wire.

   The job: a distributed word count.  The coordinator shards a corpus,
   spawns one "count" task per shard (round-robin over ranks), and merges
   everything into a custom mergeable type — a counting map whose Bump
   operations commute, so concurrent counts of the same word always sum
   correctly.  Merge order is creation order, so the final map and its
   digest are identical no matter how many nodes run the job or how
   message timing interleaves.

     dune exec examples/distributed.exe
*)

module D = Sm_dist.Coordinator
module Reg = Sm_dist.Registry
module Ws = Sm_mergeable.Workspace
module C = Sm_util.Codec

(* A custom codable mergeable type: word -> count with commutative bumps.
   This is the paper's "interface to implement new mergeable data
   structures", wire-ready. *)
module Count_map = struct
  module M = Map.Make (String)

  type state = int M.t

  type op = Bump of string * int

  let type_name = "count-map"
  let apply s (Bump (w, n)) = M.update w (fun v -> Some (Option.value ~default:0 v + n)) s
  let transform a ~against:_ ~tie:_ = [ a ]

  (* bumps always commute (identity transform both ways); compaction is
     left at the sound identity to keep the extension example minimal *)
  let compact ops = ops
  let commutes _ _ = true

  let equal_state = M.equal Int.equal

  let pp_state ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf (w, n) -> Format.fprintf ppf "%s:%d" w n))
      (M.bindings s)

  let pp_op ppf (Bump (w, n)) = Format.fprintf ppf "bump(%s, %d)" w n

  let state_codec =
    C.map M.bindings
      (fun bindings -> List.fold_left (fun m (w, n) -> M.add w n m) M.empty bindings)
      (C.list (C.pair C.string C.int))

  let op_codec = C.map (fun (Bump (w, n)) -> (w, n)) (fun (w, n) -> Bump (w, n)) (C.pair C.string C.int)
  let journal_codec = C.list op_codec
end

let registry = Reg.create ()

module Counter = Sm_dist.Codable.Counter

let k_counts = Reg.value registry ~name:"word-counts" (module Count_map)
let k_shards_done = Reg.value registry ~name:"shards-done" (module Counter)

(* The remote task: bump each word of its shard, syncing halfway so partial
   results stream back to the coordinator mid-task. *)
let t_count =
  Reg.task registry ~name:"count" (fun ctx ->
      let words =
        String.split_on_char ' ' (Reg.argument ctx)
        |> List.filter (fun w -> String.length w > 0)
      in
      let half = List.length words / 2 in
      List.iteri
        (fun i w ->
          if i = half then (match Reg.sync ctx with `Granted | `Refused -> ());
          Reg.update ctx k_counts (Count_map.Bump (w, 1)))
        words;
      Reg.update ctx k_shards_done (Sm_ot.Op_counter.add 1))

let corpus =
  [ "the quick brown fox jumps over the lazy dog"
  ; "the dog barks and the fox runs"
  ; "merge the results the same way every time"
  ; "no locks no races no surprises"
  ]

let run_job ~nodes =
  let cluster = D.cluster ~nodes registry in
  Fun.protect ~finally:(fun () -> D.shutdown cluster) @@ fun () ->
  D.run cluster (fun ctx ->
      let ws = D.workspace ctx in
      Ws.init ws (Reg.workspace_key k_counts) Count_map.M.empty;
      Ws.init ws (Reg.workspace_key k_shards_done) 0;
      List.iter (fun shard -> ignore (D.spawn ctx t_count ~argument:shard)) corpus;
      let rec drain () = if D.live_tasks ctx > 0 then (D.merge_all ctx; drain ()) in
      drain ();
      assert (Ws.read ws (Reg.workspace_key k_shards_done) = List.length corpus);
      (Ws.read ws (Reg.workspace_key k_counts), Ws.digest ws))

let () =
  print_endline "distributed word count over simulated MPI ranks";
  let results = List.map (fun nodes -> (nodes, run_job ~nodes)) [ 1; 2; 4 ] in
  (match results with
  | (_, (counts, _)) :: _ ->
    let top =
      Count_map.M.bindings counts
      |> List.sort (fun (wa, a) (wb, b) -> compare (b, wa) (a, wb))
      |> fun l -> List.filteri (fun i _ -> i < 5) l
    in
    print_endline "top words:";
    List.iter (fun (w, n) -> Format.printf "  %-10s %d@." w n) top
  | [] -> ());
  print_endline "";
  List.iter
    (fun (nodes, (_, digest)) -> Format.printf "%d node(s): workspace digest %s@." nodes digest)
    results;
  match results with
  | (_, (_, d)) :: rest when List.for_all (fun (_, (_, d')) -> d' = d) rest ->
    print_endline "identical on every cluster size: placement and timing do not matter"
  | _ -> print_endline "UNEXPECTED: digests differ"
