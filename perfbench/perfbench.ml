(* The repo's wall-clock benchmark. One client in a closed loop with zero
   think time drives a seeded workload against an in-process 4-worker,
   32-shard Citus cluster; see README.md for the workloads, the metric
   map and the clock of every number.

     perfbench --workload ycsb_a|tpcc|analytics --seed N --seconds S --trace 0|1
               [--restart notified|unnotified]

   The last line of output is one JSON object: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. --restart
   unnotified restarts the workers at the end without telling the
   coordinator's connection pools (see [restart_workers]). *)

let specs = [ Ycsb_a.spec; Tpcc_mix.spec; Analytics.spec ]

(* The untraced run is this many rounds, each a set-up from a fully
   collected heap, its warm-up and an equal share of the window. *)
let rounds = 5

(* host-speed samples before each set-up, and ops between two samples in
   the window ([ops_per_s / 10]: about ten a second) *)
let probes_per_setup = 4

let probe_every (spec : Wl.spec) = max 1 (spec.Wl.ops_per_s / 10)

let pr fmt = Printf.printf (fmt ^^ "\n%!")

(* Op outcomes, warm-up included. *)
type outcome = {
  mutable attempted : int;
  mutable failed : int;  (** exceptions *)
  mutable wrong : int;  (** answers the checks rejected *)
  mutable messages : string list;
}

let record_failure o msg =
  if List.length o.messages < 5 then o.messages <- msg :: o.messages

let run_op o (op : Wl.op) =
  o.attempted <- o.attempted + 1;
  match op.Wl.run () with
  | () -> true
  | exception Wl.Wrong_result m ->
    o.wrong <- o.wrong + 1;
    record_failure o (op.Wl.kind ^ ": wrong result: " ^ m);
    false
  | exception e ->
    o.failed <- o.failed + 1;
    record_failure o (op.Wl.kind ^ ": " ^ Printexc.to_string e);
    false

(* Maintenance ticks at a fixed op interval, as the deployment's daemon
   would: inside the throughput window, outside any op's latency. *)
type ticks = { mutable n : int; mutable us : float }

let maybe_tick (spec : Wl.spec) (w : Wl.t) o ticks ?(around = fun f -> f ()) i =
  if i > 0 && i mod spec.Wl.maintenance_every = 0 then
    around (fun () ->
        let t0 = Wl.now_ns () in
        (match Citus.Api.maintenance w.Wl.api with
         | () -> ()
         | exception e ->
           o.failed <- o.failed + 1;
           record_failure o ("maintenance: " ^ Printexc.to_string e));
        ticks.n <- ticks.n + 1;
        ticks.us <- ticks.us +. Wl.since_us t0)

let warm_up spec w o ticks =
  for i = 1 to spec.Wl.warmup_ops do
    maybe_tick spec w o ticks i;
    ignore (run_op o (w.Wl.next_op ()))
  done

(* A round's op count: fixed for a workload and [seconds], so a slow or
   fast host changes the time the run takes, never the work, and every
   round of a seed walks the same storage states. *)
let round_ops (spec : Wl.spec) ~seconds =
  max spec.Wl.count_ops (spec.Wl.ops_per_s * seconds / rounds)

(* [steps ~from k step] calls [step i] for i = from .. from + k - 1 and
   returns the elapsed seconds. *)
let steps ~from k step =
  let t0 = Wl.now_ns () in
  for i = from to from + k - 1 do
    step i
  done;
  Wl.since_s t0

let print_outcome o =
  List.iter (fun m -> pr "  failure: %s" m) (List.rev o.messages);
  pr "failed_frac %.6f (%d failed + %d wrong of %d attempted)"
    (float_of_int (o.failed + o.wrong) /. float_of_int (max 1 o.attempted))
    o.failed o.wrong o.attempted

let print_storage (db : Workloads.Db.t) =
  List.iter
    (fun (s : Layers.node_storage) ->
      pr "storage %-12s live_tuples %d dead_tuples %d wal_records %d" s.Layers.node
        (s.Layers.versions - s.Layers.dead) s.Layers.dead s.Layers.wal)
    (Layers.storage db)

(* Every worker crashes and recovers from its WAL. With [notify], each
   node running the extension hears of the crash between the two, just as
   the observer [Citus.Api.install] puts on a fault plan would: the
   crashed node drops its own sessions, the others drop their pooled
   connections to it. The cluster here has no fault plan, so without
   [notify] nobody tells the pools. Returns the WAL replay time in
   seconds. *)
let restart_workers (w : Wl.t) ~notify =
  List.fold_left
    (fun replay_s (n : Cluster.Topology.node) ->
      let inst = n.Cluster.Topology.instance in
      Engine.Instance.crash inst;
      if notify then
        List.iter
          (fun (st : Citus.State.t) ->
            if st.Citus.State.local == n then Citus.State.crash_local_sessions st
            else Citus.State.purge_node_conns st n.Cluster.Topology.node_name)
          w.Wl.api.Citus.Api.states;
      let t0 = Wl.now_ns () in
      Engine.Instance.recover_from_wal inst;
      replay_s +. Wl.since_s t0)
    0.0 w.Wl.db.Workloads.Db.cluster.Cluster.Topology.workers

(* One pass of the workload's output checks through handle [h]; whether
   every check held. *)
let run_checks (w : Wl.t) label h =
  let outcomes =
    match w.Wl.checks h with
    | l -> l
    | exception e -> [ ("checks raised " ^ Printexc.to_string e, false) ]
  in
  List.fold_left
    (fun all (name, ok) ->
      pr "check %-27s %-4s %s" label (if ok then "ok" else "FAIL") name;
      all && ok)
    true outcomes

(* End checks through the workload's own session, then every worker
   restarts from its WAL and the checks run again: acknowledged work must
   survive, and the client that saw it acknowledged must read it back
   through the same session. A pass through a fresh session follows.
   Every pass counts. Returns whether every check held and the replay
   time in seconds. *)
let checks_and_restart ~notify (w : Wl.t) =
  let run_checks = run_checks w in
  let before = run_checks "end-of-run" w.Wl.db in
  let replay_s = restart_workers w ~notify in
  pr "txn.wal_replay_s %.6f (every worker restarted from its WAL; pools %s)" replay_s
    (if notify then "told of the crash" else "not told");
  let after = run_checks "after-restart" w.Wl.db in
  let fresh = { w.Wl.db with Workloads.Db.session = Citus.Api.connect w.Wl.api } in
  let after_fresh = run_checks "after-restart, fresh session" fresh in
  (before && after && after_fresh, replay_s)

let json_line ~correct o metrics =
  let ms =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
          unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 o.attempted) (o.failed + o.wrong) (String.concat ", " ms)

let new_outcome () = { attempted = 0; failed = 0; wrong = 0; messages = [] }

(* the op's name in the readable report *)
let report_name = function "update" | "copy" -> "write" | k -> k

(* --- trace 0: end-to-end metrics --- *)

let measure (spec : Wl.spec) ~seed ~seconds ~host ~notify =
  pr "perfbench workload=%s seed=%d trace=0 clock=wall(monotonic) loop=closed clients=1 \
      think_time=0"
    spec.Wl.name seed;
  let speed = Host.speed () in
  let o = new_outcome () in
  (* latencies pooled per op kind over every round; nothing in the loop
     allocates at a time-dependent point, so the GC figures below depend
     on the seed only *)
  let lat = Hashtbl.create 8 in
  let samples kind =
    match Hashtbl.find_opt lat kind with
    | Some s -> s
    | None ->
      let s = Wl.Samples.create () in
      Hashtbl.replace lat kind s;
      s
  in
  let alloc = ref 0.0 and digest = ref 0 and top_heap = ref 0 in
  let window_ticks = { n = 0; us = 0.0 } in
  let ops = round_ops spec ~seconds in
  let elapsed = ref 0.0 and probe_s = ref 0.0 in
  let setup_times = ref [] and correct = ref true in
  let window_step w ~first i =
    if i mod probe_every spec = 0 then probe_s := !probe_s +. Host.sample host speed;
    maybe_tick spec w o window_ticks i;
    let op = w.Wl.next_op () in
    let s = samples op.Wl.kind in
    let a0 = Gc.minor_words () in
    let t0 = Wl.now_ns () in
    let ok = run_op o op in
    let us = Wl.since_us t0 in
    let a1 = Gc.minor_words () in
    if ok then Wl.Samples.add s us;
    (* the first round's counted prefix: depends on the seed only *)
    if first && i < spec.Wl.count_ops then begin
      alloc := !alloc +. (a1 -. a0);
      digest := Hashtbl.hash (!digest, op.Wl.kind, op.Wl.replay ())
    end;
    if first && i = spec.Wl.count_ops - 1 then
      top_heap := (Gc.quick_stat ()).Gc.top_heap_words
  in
  (* Each round starts from a fully collected heap with nothing live from
     an earlier one, so every set-up runs under the same conditions and
     no round's window inherits another's garbage. *)
  for r = 1 to rounds do
    for _ = 1 to probes_per_setup do
      ignore (Host.sample host speed)
    done;
    Gc.compact ();
    let w, us = Wl.timed (fun () -> spec.Wl.setup ~seed) in
    setup_times := (us *. 1e-6) :: !setup_times;
    warm_up spec w o { n = 0; us = 0.0 };
    elapsed := !elapsed +. steps ~from:0 ops (window_step w ~first:(r = 1));
    let ok =
      if r < rounds then run_checks w (Printf.sprintf "end-of-round %d" r) w.Wl.db
      else begin
        print_storage w.Wl.db;
        fst (checks_and_restart ~notify w)
      end
    in
    correct := !correct && ok
  done;
  let setup_times = List.rev !setup_times in
  (* taken when the counted prefix ends, so it depends on the seed only *)
  let peak_heap_mb = float_of_int (!top_heap * (Sys.word_size / 8)) /. 1048576.0 in
  (* every timing below is the wall clock's, scaled to the reference
     host's speed over the whole run; the readable lines give the
     unscaled figure too *)
  let slowdown = Host.slowdown speed in
  let setup_wall_s = Wl.median setup_times in
  let setup_s = setup_wall_s /. slowdown in
  let p_wall kind q = Wl.Samples.percentile (samples kind) q in
  let p kind q = p_wall kind q /. slowdown in
  let op_s = !elapsed -. !probe_s in
  let total_ops = rounds * ops in
  let rate_wall = float_of_int total_ops /. op_s in
  let rate = rate_wall *. slowdown in
  let kinds = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) lat []) in
  let alloc_per_op = !alloc /. float_of_int spec.Wl.count_ops in
  pr "host slowdown %.4f (%d samples, before each set-up and through the windows): the \
      host probe's kernel time over its %.0f us on the reference host"
    slowdown speed.Host.n Host.reference_us;
  pr "setup_s %.6f s (wall: median %.6f s of %d set-ups: %s)" setup_s setup_wall_s rounds
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  pr "throughput_ops_s %.3f 1/s (wall: %.3f; %d rounds of %d ops in %.3f s, incl. %d \
      maintenance ticks taking %.3f s, host probes excluded)"
    rate rate_wall rounds ops op_s window_ticks.n (window_ticks.us *. 1e-6);
  List.iter
    (fun kind ->
      let n = Wl.Samples.count (samples kind) in
      List.iter
        (fun (q, name) ->
          pr "%s_%s_us %.3f us (wall: %.3f; n=%d, %s)" (report_name kind) name (p kind q)
            (p_wall kind q) n kind)
        [ (0.5, "p50"); (0.95, "p95"); (0.99, "p99") ])
    kinds;
  print_outcome o;
  pr "peak_heap_mb %.3f MB (Gc top_heap_words after the first %d measured ops)" peak_heap_mb
    spec.Wl.count_ops;
  pr "alloc_words_per_op %.3f words (minor words inside the first %d measured ops)" alloc_per_op
    spec.Wl.count_ops;
  pr "op_stream_digest %d (kinds and inputs of the first %d measured ops)" !digest
    spec.Wl.count_ops;
  let correct = !correct && o.failed + o.wrong = 0 in
  let metrics =
    [
      ("setup_s", "s", setup_s);
      ("throughput_ops_s", "1/s", rate);
      ("primary_p50_us", "us", p spec.Wl.primary 0.5);
      ("primary_p95_us", "us", p spec.Wl.primary 0.95);
      ("secondary_p50_us", "us", p spec.Wl.secondary 0.5);
      ("secondary_p95_us", "us", p spec.Wl.secondary 0.95);
      ("peak_heap_mb", "MB", peak_heap_mb);
      ("alloc_words_per_op", "words", alloc_per_op);
    ]
  in
  (correct, o, metrics)

(* --- trace 1: per-layer metrics --- *)

let copy_probe (w : Wl.t) (r : Layers.replay_totals) =
  let db = w.Wl.db in
  ignore
    (Workloads.Db.exec db "CREATE TABLE perfbench_copy_probe (k bigint PRIMARY KEY, v text)");
  Citus.Api.create_distributed_table w.Wl.api ~table:"perfbench_copy_probe" ~column:"k" ();
  let trips = ref 0 in
  for b = 0 to 9 do
    let lines = List.init 50 (fun j -> Printf.sprintf "%d\tprobe%d" ((b * 50) + j + 1) j) in
    let before = Cluster.Topology.net_snapshot db.Workloads.Db.cluster in
    let n, us =
      Wl.timed (fun () ->
          Engine.Instance.copy_in db.Workloads.Db.session ~table:"perfbench_copy_probe"
            ~columns:None lines)
    in
    if n <> 50 then Wl.wrong "COPY probe stored %d of 50 rows" n;
    let net =
      Cluster.Topology.net_diff
        ~after:(Cluster.Topology.net_snapshot db.Workloads.Db.cluster)
        ~before
    in
    trips := !trips + net.Cluster.Topology.round_trips;
    r.Layers.copy_batches <- r.Layers.copy_batches + 1;
    r.Layers.copy_rows <- r.Layers.copy_rows + 50;
    r.Layers.copy_us <- r.Layers.copy_us +. us
  done;
  !trips

let traced (spec : Wl.spec) ~seed ~seconds ~notify =
  pr "perfbench workload=%s seed=%d trace=1 clock=wall(monotonic) loop=closed clients=1"
    spec.Wl.name seed;
  let o = new_outcome () in
  let n = spec.Wl.count_ops in
  let totals : Layers.totals = Hashtbl.create 64 in
  let r = Layers.replay_totals () in
  let copy_trips = ref 0 and copy_counted = ref 0 in
  let end_storage = ref [] in
  let ticks = { n = 0; us = 0.0 } and traced_ticks = { n = 0; us = 0.0 } in
  let ops = round_ops spec ~seconds in
  let slice = max 1 (spec.Wl.ops_per_s / 2) in
  let prefix_s = ref 0.0 and traced_s = ref 0.0 and untraced_s = ref 0.0 and pairs = ref 0 in
  (* One round, as in the untraced run: a fresh set-up, its warm-up and
     [ops] ops, numbered from 0 in the first round and from [n] in the
     others, so only the first round's first [n] ops are counted. Returns
     the round's workload. *)
  let round ~first =
    Gc.compact ();
    let w = spec.Wl.setup ~seed in
    warm_up spec w o { n = 0; us = 0.0 };
    let env = Layers.env w in
    let db = w.Wl.db in
    let diffed counted f =
      let before = Layers.snap db in
      let x = f () in
      let after = Layers.snap db in
      if counted then Layers.accumulate totals ~before ~after;
      (x, before, after)
    in
    let traced_step i =
      let counted = first && i < n in
      maybe_tick spec w o traced_ticks
        ~around:(fun f -> ignore (diffed counted f))
        i;
      let op = w.Wl.next_op () in
      let (ok, us), before, after =
        diffed counted (fun () ->
            let t0 = Wl.now_ns () in
            let ok = run_op o op in
            (ok, Wl.since_us t0))
      in
      let rp = op.Wl.replay () in
      (match rp with
       | Wl.Copy _ when counted ->
         incr copy_counted;
         copy_trips :=
           !copy_trips
           + (Cluster.Topology.net_diff ~after:after.Layers.net ~before:before.Layers.net)
               .Cluster.Topology.round_trips
       | _ -> ());
      if ok && i mod spec.Wl.trace_stride = 0 then Layers.replay env r ~counted ~op_us:us rp;
      if counted && i = n - 1 then end_storage := Layers.storage db
    in
    let untraced_step i =
      maybe_tick spec w o ticks i;
      ignore (run_op o (w.Wl.next_op ()))
    in
    (* the counted prefix, traced; then the rest of the round's ops in
       equal traced and untraced slices, alternating which comes first in
       each pair so that a drift in the host's speed or the storage state
       weighs on both sides alike *)
    if first then prefix_s := steps ~from:0 n traced_step;
    for p = 0 to ((ops - if first then n else 0) / (2 * slice)) - 1 do
      let from = n + (2 * p * slice) in
      let a, b =
        if p mod 2 = 0 then ((traced_step, traced_s), (untraced_step, untraced_s))
        else ((untraced_step, untraced_s), (traced_step, traced_s))
      in
      List.iteri
        (fun k (step, acc) -> acc := !acc +. steps ~from:(from + (k * slice)) slice step)
        [ a; b ];
      incr pairs
    done;
    w
  in
  let correct = ref true in
  for k = 1 to rounds - 1 do
    let w = round ~first:(k = 1) in
    correct := run_checks w (Printf.sprintf "end-of-round %d" k) w.Wl.db && !correct
  done;
  let w = round ~first:false in
  let db = w.Wl.db in
  if r.Layers.copy_batches = 0 then begin
    pr "copy.* from a 10 x 50-row COPY probe: %s has no COPY ops" spec.Wl.name;
    match copy_probe w r with
    | trips ->
      copy_trips := trips;
      copy_counted := r.Layers.copy_batches
    | exception e ->
      o.failed <- o.failed + 1;
      record_failure o ("COPY probe: " ^ Printexc.to_string e)
  end;
  print_storage db;
  let last_ok, replay_s = checks_and_restart ~notify w in
  let correct = !correct && last_ok in
  let correct = correct && o.failed + o.wrong = 0 in
  let nf = float_of_int n in
  let get = Layers.get totals in
  let per k = get k /. nf in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let fi = float_of_int in
  let sum_storage f = fi (List.fold_left (fun a s -> a + f s) 0 !end_storage) in
  let lookups = get "plancache.hits" +. get "plancache.misses" +. get "plancache.bypass" in
  let metrics =
    [
      ("sqlfront.lex_us_per_op", "us", ratio r.Layers.lex_us (fi r.Layers.ops));
      ("sqlfront.parse_us_per_op", "us", ratio r.Layers.parse_us (fi r.Layers.ops));
      ("sqlfront.deparse_us_per_op", "us", ratio r.Layers.deparse_us (fi r.Layers.ops));
      ("sqlfront.tokens_per_op", "count", ratio (fi r.Layers.tokens) (fi r.Layers.counted_ops));
      ( "sqlfront.wire_bytes_per_op", "bytes",
        ratio (fi r.Layers.wire_bytes) (fi r.Layers.counted_ops) );
      ("planner.plan_us_per_op", "us", ratio r.Layers.plan_us (fi r.Layers.ops));
      ("planner.tier.fast_path_per_op", "count", per "planner.tier.fast_path");
      ("planner.tier.router_per_op", "count", per "planner.tier.router");
      ("planner.tier.pushdown_per_op", "count", per "planner.tier.pushdown");
      ("planner.tier.dml_per_op", "count", per "planner.tier.dml");
      ("plancache.hit_ratio", "ratio", ratio (get "plancache.hits") lookups);
      ("plancache.bypass_per_op", "count", per "plancache.bypass");
      ("exec.tasks_per_op", "count", per "exec.tasks");
      ( "exec.affinity_reuse_ratio", "ratio",
        ratio (get "exec.conn_affinity_reuse") (get "exec.tasks") );
      ("exec.conn_opened", "count", get "exec.conn_opened");
      ("exec.merge_rows_per_op", "count", per "meter.merge_rows");
      ("exec.coordinator_self_us_per_op", "us", ratio r.Layers.self_us (fi r.Layers.self_ops));
      ("net.round_trips_per_op", "count", per "net.round_trips");
      ("net.cross_round_trips_per_op", "count", per "net.cross_round_trips");
      ("net.rows_shipped_per_op", "count", per "net.rows_shipped");
      ("net.connections_opened", "count", get "net.connections_opened");
      ("net.wire_us_per_task", "us", ratio r.Layers.wire_us (fi r.Layers.read_tasks));
      ("engine.task_us", "us", ratio r.Layers.engine_us (fi r.Layers.read_tasks));
      ("engine.statements_per_op", "count", per "meter.statements");
      ("engine.light_statements_per_op", "count", per "meter.light_statements");
      ("engine.routed_statements_per_op", "count", per "meter.routed_statements");
      ("engine.rows_scanned_per_op", "count", per "meter.rows_scanned");
      ("engine.index_probes_per_op", "count", per "meter.index_probes");
      ("engine.rows_written_per_op", "count", per "meter.rows_written");
      ("storage.buffer_hit_ratio", "ratio", ratio (get "buf.hits") (get "buf.hits" +. get "buf.misses"));
      ("storage.buffer_evictions", "count", get "buf.evictions");
      ("storage.index_updates_per_op", "count", per "meter.index_updates");
      ("storage.dead_tuples_end", "count", sum_storage (fun s -> s.Layers.dead));
      ( "storage.live_tuples_end", "count",
        sum_storage (fun s -> s.Layers.versions - s.Layers.dead) );
      ("txn.wal_records_per_op.coordinator", "count", per "wal.coordinator");
      ("txn.wal_records_per_op.workers", "count", per "wal.workers");
      ("txn.wal_replay_s", "s", replay_s);
      ("twopc.started_per_op", "count", per "twopc.started");
      ("twopc.delegated_commits_per_op", "count", per "twopc.delegated_commits");
      ("twopc.prepared_statements_per_op", "count", per "meter.twopc_statements");
      ("copy.us_per_row", "us", ratio r.Layers.copy_us (fi r.Layers.copy_rows));
      ("copy.round_trips_per_batch", "count", ratio (fi !copy_trips) (fi !copy_counted));
      ("maintenance.tick_us", "us", ratio traced_ticks.us (fi traced_ticks.n));
      ("maintenance.ticks", "count", get "engine.maintenance_ticks");
      ("gc.promoted_words_per_op", "words", per "gc.promoted_words");
      ("gc.major_collections", "count", get "gc.major_collections");
      ("sim.virtual_us_per_op", "us", get "vclock_s" *. 1e6 /. nf);
      ("trace.overhead_pct", "%", ((!traced_s /. !untraced_s) -. 1.0) *. 100.0);
    ]
  in
  pr "counted prefix: %d ops in %.3f s; replayed every %d-th op (%d replays); then %d pairs of \
      %d-op slices over %d rounds: traced %.3f s, untraced %.3f s"
    n !prefix_s spec.Wl.trace_stride r.Layers.ops !pairs slice rounds !traced_s !untraced_s;
  List.iter (fun (name, unit_, v) -> pr "%s %.6g %s" name v unit_) metrics;
  print_outcome o;
  (correct, o, metrics)

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload ycsb_a|tpcc|analytics --seed N --seconds S --trace 0|1 \
     [--restart notified|unnotified]";
  exit 2

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = Host.probe_flag then begin
    Host.serve ();
    exit 0
  end;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let arg k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (arg k) with Some n -> n | None -> usage () in
  let spec =
    match List.find_opt (fun (s : Wl.spec) -> s.Wl.name = arg "workload") specs with
    | Some s -> s
    | None -> usage ()
  in
  let seed = int_arg "seed" and seconds = int_arg "seconds" in
  let notify =
    match List.assoc_opt "restart" kv with
    | None | Some "notified" -> true
    | Some "unnotified" -> false
    | Some _ -> usage ()
  in
  let correct, o, metrics =
    match int_arg "trace" with
    | 0 ->
      let host = Host.start () in
      Fun.protect
        ~finally:(fun () -> Host.stop host)
        (fun () -> measure spec ~seed ~seconds ~host ~notify)
    | 1 -> traced spec ~seed ~seconds ~notify
    | _ -> usage ()
  in
  json_line ~correct o metrics
