(* Spans recorded by the benchmark around its calls into each layer.

   Every span lives on a lane: the collab workloads use lane 0 only, the
   spawn simulation gives the root task lane 0 and host [i] lane [i + 1].
   A lane is written by exactly one thread, so recording takes no lock.
   Spans on one lane nest strictly, which lets self time (a span's duration
   minus the part its children cover) be accumulated as spans close.

   Recording is off unless [enable] was called; then [start] returns at
   once and [finish] ignores its result. *)

type name =
  | Round
  | Setup
  | Tick
  | Converge
  | Driver_gen
  | Shard_tick
  | Shard_digest
  | Client_connect
  | Client_tick
  | Client_edit
  | Client_flush
  | Client_poll
  | View_digest
  | Rt_spawn
  | Rt_merge_all
  | Rt_sync
  | Host_work
  | Host_loop

let all_names =
  [ Round; Setup; Tick; Converge; Driver_gen; Shard_tick; Shard_digest; Client_connect
  ; Client_tick; Client_edit; Client_flush; Client_poll; View_digest; Rt_spawn
  ; Rt_merge_all; Rt_sync; Host_work; Host_loop ]

let index = function
  | Round -> 0
  | Setup -> 1
  | Tick -> 2
  | Converge -> 3
  | Driver_gen -> 4
  | Shard_tick -> 5
  | Shard_digest -> 6
  | Client_connect -> 7
  | Client_tick -> 8
  | Client_edit -> 9
  | Client_flush -> 10
  | Client_poll -> 11
  | View_digest -> 12
  | Rt_spawn -> 13
  | Rt_merge_all -> 14
  | Rt_sync -> 15
  | Host_work -> 16
  | Host_loop -> 17

let n_names = List.length all_names

let to_string = function
  | Round -> "driver.round"
  | Setup -> "driver.setup"
  | Tick -> "driver.tick"
  | Converge -> "driver.converge"
  | Driver_gen -> "driver.gen"
  | Shard_tick -> "shard.tick"
  | Shard_digest -> "shard.digest"
  | Client_connect -> "client.connect"
  | Client_tick -> "client.tick"
  | Client_edit -> "client.edit"
  | Client_flush -> "client.flush"
  | Client_poll -> "client.poll"
  | View_digest -> "ws.digest"
  | Rt_spawn -> "runtime.spawn"
  | Rt_merge_all -> "runtime.merge_all"
  | Rt_sync -> "runtime.sync"
  | Host_work -> "host.work"
  | Host_loop -> "driver.host_loop"

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Words allocated by the calling domain so far: minor allocations plus
   direct major ones. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* One recorded span, packed as [fields] consecutive ints. *)
let fields = 8
let f_id = 0
let f_parent = 1
let f_name = 2
let f_batch = 3
let f_arg = 4
let f_start = 5
let f_stop = 6
let f_alloc = 7

type frame =
  { sp_id : int
  ; sp_name : int
  ; sp_start : int
  ; sp_alloc : float
  ; mutable child_ns : int
  }

type totals =
  { mutable count : int
  ; mutable self_ns : int
  ; mutable alloc : float  (* inclusive *)
  ; durations : float Sm_util.Vec.t option
  }

type lane =
  { lane_id : int
  ; mutable spans : int array
  ; mutable len : int
  ; mutable next : int
  ; mutable stack : frame list
  ; totals : totals array
  }

type t = { lanes : lane array }

let current : t option ref = ref None

(* Individual durations are kept only where a percentile is reported. *)
let keeps_durations name = name = index Shard_tick

let new_lane lane_id =
  { lane_id
  ; spans = Array.make (fields * 4096) 0
  ; len = 0
  ; next = 0
  ; stack = []
  ; totals =
      Array.init n_names (fun i ->
          { count = 0
          ; self_ns = 0
          ; alloc = 0.
          ; durations = (if keeps_durations i then Some (Sm_util.Vec.create ()) else None)
          })
  }

(* Start recording on [lanes] lanes. *)
let enable ~lanes = current := Some { lanes = Array.init lanes new_lane }

let get () =
  match !current with
  | Some t -> t
  | None -> invalid_arg "Trace: tracing is off"

type span = frame option

let start lane name : span =
  match !current with
  | None -> None
  | Some t ->
    let l = t.lanes.(lane) in
    let id = (l.lane_id lsl 40) lor l.next in
    l.next <- l.next + 1;
    let f =
      { sp_id = id
      ; sp_name = index name
      ; sp_start = now_ns ()
      ; sp_alloc = alloc_words ()
      ; child_ns = 0
      }
    in
    l.stack <- f :: l.stack;
    Some f

let push l v =
  if l.len >= Array.length l.spans then begin
    let bigger = Array.make (2 * Array.length l.spans) 0 in
    Array.blit l.spans 0 bigger 0 l.len;
    l.spans <- bigger
  end;
  l.spans.(l.len) <- v;
  l.len <- l.len + 1

let finish ?(batch = -1) ?(arg = -1) lane (s : span) =
  match s with
  | None -> ()
  | Some f ->
    let stop = now_ns () in
    let alloc = alloc_words () -. f.sp_alloc in
    let l = (get ()).lanes.(lane) in
    (match l.stack with
    | top :: rest when top == f -> l.stack <- rest
    | _ -> invalid_arg "Trace.finish: spans must close innermost first");
    let dur = stop - f.sp_start in
    let parent =
      match l.stack with
      | p :: _ ->
        p.child_ns <- p.child_ns + dur;
        p.sp_id
      | [] -> -1
    in
    let tot = l.totals.(f.sp_name) in
    tot.count <- tot.count + 1;
    tot.self_ns <- tot.self_ns + (dur - f.child_ns);
    tot.alloc <- tot.alloc +. alloc;
    (match tot.durations with
    | Some v -> Sm_util.Vec.push v (float_of_int dur)
    | None -> ());
    push l f.sp_id;
    push l parent;
    push l f.sp_name;
    push l batch;
    push l arg;
    push l f.sp_start;
    push l stop;
    push l (int_of_float alloc)

let span lane name fn =
  let s = start lane name in
  match fn () with
  | v ->
    finish lane s;
    v
  | exception e ->
    finish lane s;
    raise e

(* --- reading back ----------------------------------------------------------- *)

(* [name]'s totals summed over lanes [first..last] (default: all). *)
let sum ?(first = 0) ?last name =
  let t = get () in
  let last = Option.value last ~default:(Array.length t.lanes - 1) in
  let acc = { count = 0; self_ns = 0; alloc = 0.; durations = None } in
  for i = first to last do
    let x = t.lanes.(i).totals.(index name) in
    acc.count <- acc.count + x.count;
    acc.self_ns <- acc.self_ns + x.self_ns;
    acc.alloc <- acc.alloc +. x.alloc
  done;
  acc

let count name = (sum name).count
let self_s ?first ?last name = float_of_int (sum ?first ?last name).self_ns /. 1e9

(* Inclusive allocation in words, and in millions of words. *)
let alloc_words_of name = int_of_float (sum name).alloc
let alloc_mw name = float_of_int (alloc_words_of name) /. 1e6

let durations_ns name =
  let t = get () in
  Array.to_list t.lanes
  |> List.concat_map (fun l ->
         match l.totals.(index name).durations with
         | Some v -> Sm_util.Vec.to_list v
         | None -> [])

(* Write every span as one tab-separated line:
   id parent name batch arg start_ns end_ns alloc_words. *)
let write_spans path =
  let t = get () in
  let oc = open_out path in
  output_string oc "# id\tparent\tname\tbatch\targ\tstart_ns\tend_ns\talloc_words\n";
  Array.iter
    (fun l ->
      let i = ref 0 in
      while !i < l.len do
        let g k = l.spans.(!i + k) in
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n" (g f_id) (g f_parent)
          (to_string (List.nth all_names (g f_name)))
          (g f_batch) (g f_arg) (g f_start) (g f_stop) (g f_alloc);
        i := !i + fields
      done)
    t.lanes;
  close_out oc
