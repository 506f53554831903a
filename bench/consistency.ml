(* Distributed snapshot consistency overhead (DESIGN.md §4h): p50/p95 of
   scatter-gather reads at [eventual] vs [snapshot], each with and
   without one worker's clock skewed by seconds — same seed, same
   workload. The writes are two-key transfers whose COMMIT PREPARED
   fan-out is occasionally fumbled, so snapshot readers really do hit
   in-doubt windows and pay for resolving them; eventual readers skip
   the machinery (and may observe torn totals — counted, not asserted).
   The overhead is measured honestly, not asserted small. Writes
   BENCH_consistency.json. *)

let n_keys = 24
let n_rounds = 80
let fumble_every = 8
let skew_offset = 2.0
let skew_drift = 0.02
let seed = 11

type summary = {
  mode : string;
  skewed : bool;
  p50 : float;
  p95 : float;
  mean : float;
  indoubt_waits : int;
  read_retries : int;
  torn_reads : int;
}

(* nearest-rank percentile over a sorted array *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let run_mode ~consistency ~skewed () =
  let cluster =
    Cluster.Topology.create ~workers:3 ~fault_seed:seed ~sched_seed:seed ()
  in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  let st = Citus.Api.coordinator_state citus in
  let s = Citus.Api.connect citus in
  let exec sql = ignore (Engine.Instance.exec s sql) in
  exec "CREATE TABLE accounts (key bigint PRIMARY KEY, balance bigint)";
  exec "SELECT create_distributed_table('accounts', 'key')";
  for k = 0 to n_keys - 1 do
    exec (Printf.sprintf "INSERT INTO accounts (key, balance) VALUES (%d, 100)" k)
  done;
  let fault =
    match Cluster.Topology.fault cluster with
    | Some f -> f
    | None -> invalid_arg "consistency bench needs a fault plan"
  in
  Sim.Fault.set_latency fault ~mean:0.002 ~jitter:0.001;
  if skewed then begin
    let victim =
      (List.hd cluster.Cluster.Topology.workers).Cluster.Topology.node_name
    in
    Sim.Fault.schedule_skew fault ~at:0.0 ~offset:skew_offset ~drift:skew_drift
      victim
  end;
  st.Citus.State.config.Citus.State.consistency <- consistency;
  let clock = cluster.Cluster.Topology.clock in
  let rng = Random.State.make [| seed; 0xc0de |] in
  let torn = ref 0 in
  let expected = n_keys * 100 in
  let samples =
    Array.init n_rounds (fun i ->
        (* a cross-node transfer, sometimes with its commit fan-out to
           one worker fumbled — the in-doubt window a snapshot reader
           must resolve *)
        let k1 = Random.State.int rng n_keys in
        let k2 = (k1 + 1 + Random.State.int rng (n_keys - 1)) mod n_keys in
        let amount = 1 + Random.State.int rng 5 in
        let fumble = i mod fumble_every = fumble_every - 1 in
        if fumble then
          Sim.Fault.refuse_statements fault
            ~from_:st.Citus.State.local.Cluster.Topology.node_name
            ~to_:(Printf.sprintf "worker%d" (1 + Random.State.int rng 3))
            ~matching:"COMMIT PREPARED";
        (try
           exec "BEGIN";
           exec
             (Printf.sprintf
                "UPDATE accounts SET balance = balance - %d WHERE key = %d"
                amount k1);
           exec
             (Printf.sprintf
                "UPDATE accounts SET balance = balance + %d WHERE key = %d"
                amount k2);
           exec "COMMIT"
         with _ -> ( try exec "ROLLBACK" with _ -> ()));
        if fumble then Sim.Fault.clear_refusals fault;
        let t0 = Sim.Clock.now clock in
        (match
           (Engine.Instance.exec s "SELECT sum(balance) FROM accounts")
             .Engine.Instance.rows
         with
         | [ [| Datum.Int total |] ] when total <> expected -> incr torn
         | _ -> ());
        Sim.Clock.now clock -. t0)
  in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let mean =
    Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)
  in
  let counter name =
    Obs.Metrics.counter_value (Cluster.Topology.metrics cluster) name
  in
  {
    mode = Citus.State.consistency_to_string consistency;
    skewed;
    p50 = percentile sorted 0.50;
    p95 = percentile sorted 0.95;
    mean;
    indoubt_waits = counter Obs.Metric_names.snapshot_indoubt_waits;
    read_retries = counter Obs.Metric_names.snapshot_read_retries;
    torn_reads = !torn;
  }

let measure_modes () =
  List.concat_map
    (fun skewed ->
      List.map
        (fun consistency -> run_mode ~consistency ~skewed ())
        [ Citus.State.Eventual; Citus.State.Snapshot ])
    [ false; true ]

let json_out summaries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"consistency_overhead\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"reads_per_mode\": %d,\n" n_rounds);
  Buffer.add_string buf "  \"unit\": \"virtual seconds\",\n";
  Buffer.add_string buf "  \"modes\": [\n";
  let n = List.length summaries in
  List.iteri
    (fun i r ->
      let base =
        List.find
          (fun b -> b.mode = "eventual" && b.skewed = r.skewed)
          summaries
      in
      let pct =
        if base.p50 > 0.0 then (r.p50 -. base.p50) /. base.p50 *. 100.0
        else 0.0
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"mode\": %S, \"skewed\": %b, \"p50\": %.6f, \"p95\": %.6f, \
            \"mean\": %.6f, \"indoubt_waits\": %d, \"read_retries\": %d, \
            \"torn_reads\": %d, \"overhead_p50_pct\": %.1f}%s\n"
           r.mode r.skewed r.p50 r.p95 r.mean r.indoubt_waits r.read_retries
           r.torn_reads pct
           (if i = n - 1 then "" else ",")))
    summaries;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let run () =
  Report.section
    "Consistency overhead: scatter-gather reads, eventual vs snapshot";
  let summaries = measure_modes () in
  Report.note "  %-10s %6s %12s %12s %12s %7s %8s %6s" "mode" "skew"
    "p50 (s)" "p95 (s)" "mean (s)" "waits" "retries" "torn";
  List.iter
    (fun r ->
      Report.note "  %-10s %6b %12.6f %12.6f %12.6f %7d %8d %6d" r.mode
        r.skewed r.p50 r.p95 r.mean r.indoubt_waits r.read_retries
        r.torn_reads)
    summaries;
  let json = json_out summaries in
  let oc = open_out "BENCH_consistency.json" in
  output_string oc json;
  close_out oc;
  Report.note "  wrote BENCH_consistency.json";
  summaries
