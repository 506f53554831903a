(* Citus MX chaos (§3.2.1): with the catalog replicated to every worker,
   any node coordinates distributed transactions in its own gid
   namespace. The seeded storm runs pgbench-style balance transfers
   round-robined across ALL coordinating nodes while nodes — including
   the bootstrap coordinator and the very workers originating
   transactions — crash, partition, and lose messages mid-fan-out.

   Invariants after quiescence, each tagged with the seed for replay:

   - atomicity: transfers conserve the total balance no matter which
     coordinator ran them or died running them;
   - zero orphaned prepared transactions on any node, across every gid
     namespace (each gid resolves against its origin's commit records);
   - commit records drained on every coordinating node;
   - no torn snapshot reads: every mid-storm sum that returned at all
     returned the conserved total (citus.consistency = snapshot);
   - catalog replicas in lockstep: same version, same placement map on
     every metadata-synced node;
   - bit-identical same-seed replay of the whole observable surface. *)

let n_keys = 24
let initial_balance = 100
let expected_total = n_keys * initial_balance
let n_txns = 40
let clock_step = 0.25

type outcome = Committed | Failed | Unknown

let outcome_name = function
  | Committed -> "committed"
  | Failed -> "failed"
  | Unknown -> "unknown"

let exec s sql = Engine.Instance.exec s sql

let one_int s sql =
  match (exec s sql).Engine.Instance.rows with
  | [ [| Datum.Int i |] ] -> i
  | rows ->
    Alcotest.fail
      (Printf.sprintf "expected one int from %S, got %d rows" sql
         (List.length rows))

let fault_of cluster =
  match Cluster.Topology.fault cluster with
  | Some f -> f
  | None -> Alcotest.fail "cluster has no fault plan"

(* Build the MX cluster: install, load, then replicate the catalog so
   every worker coordinates. The consistency knob is set through a
   WORKER session after the sync — citus_set_config must propagate it
   to every installed node. *)
let make_cluster ~seed ~replication =
  let cluster =
    Cluster.Topology.create ~workers:3 ~fault_seed:seed ~sched_seed:seed ()
  in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  Citus.Api.set_replication_factor citus replication;
  let s = Citus.Api.connect citus in
  ignore
    (exec s "CREATE TABLE accounts (key bigint PRIMARY KEY, balance bigint)");
  ignore (exec s "SELECT create_distributed_table('accounts', 'key')");
  for k = 0 to n_keys - 1 do
    ignore
      (exec s
         (Printf.sprintf
            "INSERT INTO accounts (key, balance) VALUES (%d, %d)" k
            initial_balance))
  done;
  ignore (exec s "SELECT citus_enable_metadata_sync()");
  let w =
    Citus.Api.connect_via citus (List.hd cluster.Cluster.Topology.workers)
  in
  ignore (exec w "SELECT citus_set_config('consistency', 'snapshot')");
  List.iter
    (fun (st : Citus.State.t) ->
      Alcotest.(check string)
        (Printf.sprintf "consistency propagated to %s"
           st.Citus.State.local.Cluster.Topology.node_name)
        "snapshot"
        (Citus.State.consistency_to_string
           st.Citus.State.config.Citus.State.consistency))
    citus.Citus.Api.states;
  (cluster, citus)

let coordinating_nodes cluster = Cluster.Topology.data_nodes cluster

let node_of citus k =
  let meta = citus.Citus.Api.metadata in
  Citus.Metadata.placement meta
    (Citus.Metadata.shard_for_value meta ~table:"accounts" (Datum.Int k))
      .Citus.Metadata.shard_id

(* --- the workload: one session per coordinating node --- *)

let ensure_session citus node sref =
  if not (Engine.Instance.session_alive !sref) then
    sref := Citus.Api.connect_via citus node

let transfer citus node sref ~k1 ~k2 ~amount =
  ensure_session citus node sref;
  let s = !sref in
  match
    ignore (exec s "BEGIN");
    ignore
      (exec s
         (Printf.sprintf
            "UPDATE accounts SET balance = balance - %d WHERE key = %d" amount
            k1));
    ignore
      (exec s
         (Printf.sprintf
            "UPDATE accounts SET balance = balance + %d WHERE key = %d" amount
            k2))
  with
  | () -> (
    match exec s "COMMIT" with
    | _ -> Committed
    | exception _ ->
      (try ignore (exec s "ROLLBACK") with _ -> ());
      Unknown)
  | exception _ ->
    (try ignore (exec s "ROLLBACK") with _ -> ());
    Failed

(* --- the fault schedule: nobody is special --- *)

let schedule_faults cluster fault rng =
  let workers =
    List.map
      (fun (n : Cluster.Topology.node) -> n.Cluster.Topology.node_name)
      cluster.Cluster.Topology.workers
  in
  let horizon = float_of_int n_txns *. clock_step in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let nodes = "coordinator" :: workers in
  (* crashes with WAL-replay restarts — the bootstrap coordinator and
     transaction-originating workers are equally fair game *)
  for _ = 1 to 3 do
    let at = Random.State.float rng (horizon *. 0.8) in
    let down_for = 0.5 +. Random.State.float rng 2.0 in
    Sim.Fault.schedule_crash fault ~at ~down_for (pick nodes)
  done;
  (* asymmetric partitions between arbitrary node pairs: with many
     coordinators every link matters, not just coordinator<->worker *)
  for _ = 1 to 3 do
    let at = Random.State.float rng (horizon *. 0.8) in
    let heal_after = 0.5 +. Random.State.float rng 2.0 in
    let from_ = pick nodes in
    let to_ = pick (List.filter (fun n -> not (String.equal n from_)) nodes) in
    Sim.Fault.schedule_partition ~heal_after fault ~at ~from_ ~to_
  done;
  Sim.Fault.set_drop_rate fault
    ~request:(Random.State.float rng 0.03)
    ~reply:(Random.State.float rng 0.03);
  (* sometimes, a participant dies right between PREPARE and COMMIT
     PREPARED — whoever coordinates, recovery owns the cleanup *)
  if Random.State.bool rng then
    Sim.Fault.arm_crash_after fault ~node:(pick workers)
      ~matching:"PREPARE TRANSACTION"
      ~lose_reply:(Random.State.bool rng) ()

(* --- quiescence --- *)

let quiesce cluster citus =
  let fault = fault_of cluster in
  Sim.Fault.quiesce fault;
  List.iter
    (fun (n : Cluster.Topology.node) ->
      Sim.Fault.crash_now fault n.Cluster.Topology.node_name;
      Sim.Fault.restart_now fault n.Cluster.Topology.node_name)
    (Cluster.Topology.all_nodes cluster);
  Sim.Clock.advance cluster.Cluster.Topology.clock 30.0;
  for _ = 1 to 3 do
    Citus.Api.maintenance citus
  done

let write_pass citus =
  let s = Citus.Api.connect citus in
  for k = 0 to n_keys - 1 do
    ignore
      (Citus.Api.exec_with_retries citus s
         (Printf.sprintf
            "UPDATE accounts SET balance = balance + 0 WHERE key = %d" k))
  done

(* --- invariants --- *)

let check_invariants ~seed cluster citus =
  let msg m = Printf.sprintf "[seed %d] %s" seed m in
  let s = Citus.Api.connect citus in
  Alcotest.(check int)
    (msg "total balance conserved")
    expected_total
    (one_int s "SELECT sum(balance) FROM accounts");
  (* zero orphaned prepared transactions, in every gid namespace *)
  List.iter
    (fun (n : Cluster.Topology.node) ->
      let mgr = Engine.Instance.txn_manager n.Cluster.Topology.instance in
      Alcotest.(check int)
        (msg
           (Printf.sprintf "no orphaned prepared transactions on %s"
              n.Cluster.Topology.node_name))
        0
        (List.length (Txn.Manager.prepared_transactions mgr)))
    (Cluster.Topology.all_nodes cluster);
  (* every coordinating node's commit records drained *)
  List.iter
    (fun (st : Citus.State.t) ->
      Alcotest.(check int)
        (msg
           (Printf.sprintf "commit records drained on %s"
              st.Citus.State.local.Cluster.Topology.node_name))
        0
        (Citus.Twopc.commit_record_count st))
    citus.Citus.Api.states;
  (* catalog replicas advanced in lockstep: same version, same
     placement map everywhere *)
  let origin = citus.Citus.Api.metadata in
  let placement_map meta =
    List.map
      (fun (sh : Citus.Metadata.shard) ->
        ( sh.Citus.Metadata.shard_id,
          List.sort String.compare
            (Citus.Metadata.placements meta sh.Citus.Metadata.shard_id) ))
      (Citus.Metadata.shards_of meta "accounts")
  in
  List.iter
    (fun (st : Citus.State.t) ->
      let name = st.Citus.State.local.Cluster.Topology.node_name in
      Alcotest.(check int)
        (msg (Printf.sprintf "catalog version in lockstep on %s" name))
        (Citus.Metadata.version origin)
        (Citus.Metadata.version st.Citus.State.metadata);
      if placement_map st.Citus.State.metadata <> placement_map origin then
        Alcotest.fail
          (msg (Printf.sprintf "placement map diverged on %s" name)))
    citus.Citus.Api.states;
  (* full replication restored, replicas bit-identical *)
  Alcotest.(check int)
    (msg "no inactive placements")
    0
    (List.length (Citus.Metadata.inactive_placements origin));
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      let shard_table = Citus.Metadata.shard_name sh in
      let replicas =
        Citus.Metadata.placements origin sh.Citus.Metadata.shard_id
      in
      let rows_on node =
        let inst =
          (Cluster.Topology.find_node cluster node).Cluster.Topology.instance
        in
        let rs = Engine.Instance.connect inst in
        (exec rs
           (Printf.sprintf "SELECT key, balance FROM %s ORDER BY key"
              shard_table))
          .Engine.Instance.rows
      in
      match replicas with
      | [] -> Alcotest.fail (msg (shard_table ^ " lost every placement"))
      | first :: rest ->
        let reference = rows_on first in
        List.iter
          (fun node ->
            if rows_on node <> reference then
              Alcotest.fail
                (msg (Printf.sprintf "%s diverged on %s" shard_table node)))
          rest)
    (Citus.Metadata.shards_of origin "accounts")

(* --- one full storm --- *)

let run_storm ?(setup = ignore) ~seed () =
  let cluster, citus = make_cluster ~seed ~replication:2 in
  Obs.Trace.set_enabled (Cluster.Topology.trace cluster) true;
  let fault = fault_of cluster in
  let clock = cluster.Cluster.Topology.clock in
  let sched_rng = Random.State.make [| seed; 0x3fa9 |] in
  let wl_rng = Random.State.make [| seed; 0x0b5e |] in
  schedule_faults cluster fault sched_rng;
  setup fault;
  let coords = coordinating_nodes cluster in
  let srefs =
    List.map (fun n -> (n, ref (Citus.Api.connect_via citus n))) coords
  in
  let torn_reads = ref 0 in
  let outcomes = ref [] in
  for i = 1 to n_txns do
    Sim.Clock.advance clock clock_step;
    let node, sref = List.nth srefs (i mod List.length srefs) in
    let k1 = Random.State.int wl_rng n_keys in
    let k2 = (k1 + 1 + Random.State.int wl_rng (n_keys - 1)) mod n_keys in
    let amount = 1 + Random.State.int wl_rng 10 in
    let o = transfer citus node sref ~k1 ~k2 ~amount in
    outcomes :=
      (node.Cluster.Topology.node_name, outcome_name o) :: !outcomes;
    (* mid-storm snapshot reads from a different coordinator than the
       one that just wrote: any sum that returns at all must be the
       conserved total — a torn read is an invariant violation, not a
       transient *)
    if i mod 5 = 0 then begin
      let rnode, rref = List.nth srefs ((i + 1) mod List.length srefs) in
      ensure_session citus rnode rref;
      match one_int !rref "SELECT sum(balance) FROM accounts" with
      | total -> if total <> expected_total then incr torn_reads
      | exception _ -> ()
    end;
    if i = n_txns / 2 then (try Citus.Api.maintenance citus with _ -> ())
  done;
  quiesce cluster citus;
  write_pass citus;
  Citus.Api.maintenance citus;
  let s = Citus.Api.connect citus in
  let total = one_int s "SELECT sum(balance) FROM accounts" in
  (cluster, citus, List.rev !outcomes, total, !torn_reads)

let chaos_seeds =
  match Sys.getenv_opt "CHAOS_SEEDS" with
  | None -> 6
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ ->
      invalid_arg
        (Printf.sprintf "CHAOS_SEEDS must be a positive integer, got %S" v))

let seed_matrix = List.init chaos_seeds (fun i -> i + 21)

let test_seed seed () =
  let cluster, citus, outcomes, _total, torn = run_storm ~seed () in
  check_invariants ~seed cluster citus;
  Alcotest.(check int)
    (Printf.sprintf "[seed %d] no torn snapshot reads" seed)
    0 torn;
  Alcotest.(check bool)
    (Printf.sprintf "[seed %d] some transfers committed" seed)
    true
    (List.exists (fun (_, o) -> String.equal o "committed") outcomes);
  (* the whole point of MX: transactions were coordinated off the
     bootstrap coordinator *)
  let metrics = Cluster.Topology.metrics cluster in
  Alcotest.(check bool)
    (Printf.sprintf "[seed %d] workers coordinated transactions" seed)
    true
    (Obs.Metrics.counter_value metrics
       Obs.Metric_names.mx_worker_coordinated_txns
    > 0);
  Alcotest.(check bool)
    (Printf.sprintf "[seed %d] metadata syncs recorded" seed)
    true
    (Obs.Metrics.counter_value metrics Obs.Metric_names.mx_metadata_syncs
    > 0)

(* --- bit-for-bit reproducibility --- *)

let observable (cluster, _citus, outcomes, total, torn) =
  let obs = Cluster.Topology.obs cluster in
  ( Sim.Fault.trace (fault_of cluster),
    List.map (fun (n, o) -> n ^ ":" ^ o) outcomes,
    total,
    torn,
    Obs.Metrics.render (Obs.Metrics.snapshot obs.Obs.metrics),
    Obs.Trace.render_tree (Obs.Trace.spans obs.Obs.trace),
    Sim.Clock.now cluster.Cluster.Topology.clock )

(* Two storms are bit-identical in everything observable; returns the
   first one's fault trace. *)
let check_same_storm a b =
  let trace_a, outcomes_a, total_a, torn_a, metrics_a, spans_a, clock_a =
    observable a
  in
  let trace_b, outcomes_b, total_b, torn_b, metrics_b, spans_b, clock_b =
    observable b
  in
  Alcotest.(check (list string)) "same fault trace" trace_a trace_b;
  Alcotest.(check (list string)) "same (node, outcome) stream" outcomes_a
    outcomes_b;
  Alcotest.(check int) "same total" total_a total_b;
  Alcotest.(check int) "same torn-read count" torn_a torn_b;
  Alcotest.(check string) "bit-identical metric snapshot" metrics_a metrics_b;
  Alcotest.(check (list string)) "bit-identical span tree" spans_a spans_b;
  Alcotest.(check (float 0.0)) "same virtual clock" clock_a clock_b;
  trace_a

let test_reproducible () =
  let trace_a =
    check_same_storm (run_storm ~seed:25 ()) (run_storm ~seed:25 ())
  in
  let trace_c, _, _, _, _, _, _ = observable (run_storm ~seed:26 ()) in
  Alcotest.(check bool) "different seed, different schedule" true
    (trace_a <> trace_c)

(* --- targeted: the origin worker crashes mid-fan-out --- *)

(* A worker-coordinated transfer whose COMMIT PREPARED fan-out is cut
   off, then the ORIGIN worker itself crashes. The participants hold
   prepared transactions in the origin's gid namespace; while the origin
   is down nobody may guess the outcome (its commit records are the
   only truth), and once it restarts, recovery must finish the commit
   from the origin's records. *)
let test_origin_crash_mid_fanout () =
  let cluster, citus = make_cluster ~seed:77 ~replication:1 in
  let fault = fault_of cluster in
  let origin = List.hd cluster.Cluster.Topology.workers in
  let origin_name = origin.Cluster.Topology.node_name in
  (* two keys on two nodes, neither the origin: a pure fan-out 2PC *)
  let foreign k = not (String.equal (node_of citus k) origin_name) in
  let k1 =
    let rec go k = if foreign k then k else go (k + 1) in
    go 0
  in
  let k2 =
    let rec go k =
      if foreign k && not (String.equal (node_of citus k) (node_of citus k1))
      then k
      else go (k + 1)
    in
    go (k1 + 1)
  in
  let origin_st =
    List.find
      (fun (st : Citus.State.t) ->
        String.equal st.Citus.State.local.Cluster.Topology.node_name
          origin_name)
      citus.Citus.Api.states
  in
  let s = Citus.Api.connect_via citus origin in
  ignore (exec s "BEGIN");
  ignore
    (exec s
       (Printf.sprintf
          "UPDATE accounts SET balance = balance - 7 WHERE key = %d" k1));
  ignore
    (exec s
       (Printf.sprintf
          "UPDATE accounts SET balance = balance + 7 WHERE key = %d" k2));
  (* cut the fan-out: both participants' COMMIT PREPARED will fail after
     the origin's local commit (commit records durable on the origin) *)
  Sim.Fault.refuse_statements fault ~from_:origin_name ~to_:(node_of citus k1)
    ~matching:"COMMIT PREPARED";
  Sim.Fault.refuse_statements fault ~from_:origin_name ~to_:(node_of citus k2)
    ~matching:"COMMIT PREPARED";
  ignore (exec s "COMMIT");
  Sim.Fault.clear_refusals fault;
  Alcotest.(check bool) "commit records durable on the origin worker" true
    (Citus.Twopc.commit_record_count origin_st > 0);
  (* both participants still hold prepared txns in the origin's namespace *)
  let prepared_on node =
    List.length
      (Txn.Manager.prepared_transactions
         (Engine.Instance.txn_manager
            (Cluster.Topology.find_node cluster node).Cluster.Topology.instance))
  in
  Alcotest.(check int) "participant 1 in doubt" 1 (prepared_on (node_of citus k1));
  Alcotest.(check int) "participant 2 in doubt" 1 (prepared_on (node_of citus k2));
  (* now the origin crashes: its commit records are unreachable *)
  Sim.Fault.crash_now fault origin_name;
  (try Citus.Api.maintenance citus with _ -> ());
  Alcotest.(check int)
    "origin down: participant 1 stays in doubt (no guessing)" 1
    (prepared_on (node_of citus k1));
  Alcotest.(check int)
    "origin down: participant 2 stays in doubt (no guessing)" 1
    (prepared_on (node_of citus k2));
  (* origin returns: recovery finishes the commit from its records *)
  Sim.Fault.restart_now fault origin_name;
  Sim.Clock.advance cluster.Cluster.Topology.clock 30.0;
  for _ = 1 to 3 do
    Citus.Api.maintenance citus
  done;
  let s = Citus.Api.connect citus in
  Alcotest.(check int) "debit committed by recovery" (initial_balance - 7)
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k1));
  Alcotest.(check int) "credit committed by recovery" (initial_balance + 7)
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k2));
  List.iter
    (fun (n : Cluster.Topology.node) ->
      Alcotest.(check int)
        (Printf.sprintf "no prepared transactions left on %s"
           n.Cluster.Topology.node_name)
        0 (prepared_on n.Cluster.Topology.node_name))
    (Cluster.Topology.all_nodes cluster);
  Alcotest.(check int) "origin's commit records drained" 0
    (Citus.Twopc.commit_record_count origin_st);
  Alcotest.(check bool) "foreign-namespace resolutions counted" true
    (Obs.Metrics.counter_value
       (Cluster.Topology.metrics cluster)
       Obs.Metric_names.mx_foreign_gids_resolved
    >= 0)

(* --- targeted: the bootstrap coordinator is down, a worker coordinates --- *)

let test_worker_coordinates_without_coordinator () =
  let cluster, citus = make_cluster ~seed:78 ~replication:1 in
  let fault = fault_of cluster in
  Sim.Fault.crash_now fault "coordinator";
  let origin = List.hd cluster.Cluster.Topology.workers in
  let s = Citus.Api.connect_via citus origin in
  (* a genuine multi-node 2PC, planned and committed with the bootstrap
     coordinator dead *)
  let k1 = 0 in
  let k2 =
    let rec go k =
      if String.equal (node_of citus k) (node_of citus k1) then go (k + 1)
      else k
    in
    go 1
  in
  ignore (exec s "BEGIN");
  ignore
    (exec s
       (Printf.sprintf
          "UPDATE accounts SET balance = balance - 5 WHERE key = %d" k1));
  ignore
    (exec s
       (Printf.sprintf
          "UPDATE accounts SET balance = balance + 5 WHERE key = %d" k2));
  ignore (exec s "COMMIT");
  Alcotest.(check int) "debit visible via the worker" (initial_balance - 5)
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k1));
  Alcotest.(check int) "credit visible via the worker" (initial_balance + 5)
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k2));
  Sim.Fault.restart_now fault "coordinator";
  Sim.Clock.advance cluster.Cluster.Topology.clock 30.0;
  for _ = 1 to 3 do
    Citus.Api.maintenance citus
  done;
  List.iter
    (fun (n : Cluster.Topology.node) ->
      Alcotest.(check int)
        (Printf.sprintf "no prepared transactions left on %s"
           n.Cluster.Topology.node_name)
        0
        (List.length
           (Txn.Manager.prepared_transactions
              (Engine.Instance.txn_manager n.Cluster.Topology.instance))))
    (Cluster.Topology.all_nodes cluster);
  Alcotest.(check bool) "counted as worker-coordinated" true
    (Obs.Metrics.counter_value
       (Cluster.Topology.metrics cluster)
       Obs.Metric_names.mx_worker_coordinated_txns
    > 0)

(* --- targeted: statement refusal is per origin --- *)

(* A [Sim.Fault] refusal cuts one origin's matching statements to one
   worker. Another MX coordinator's COMMIT PREPARED to that worker still
   lands; the refused origin's never runs, so its participant keeps the
   prepared transaction for recovery; [quiesce] clears the rule. *)
let test_refusal_is_per_origin () =
  let cluster, citus = make_cluster ~seed:79 ~replication:1 in
  let fault = fault_of cluster in
  let node name = Cluster.Topology.find_node cluster name in
  let refused = "worker1" and other = "worker2" and target = "worker3" in
  let rec key_on pred k =
    if pred (node_of citus k) then k else key_on pred (k + 1)
  in
  let k1 = key_on (String.equal target) 0 in
  let k2 = key_on (fun n -> not (String.equal n target)) 0 in
  let prepared_on name =
    Txn.Manager.prepared_transactions
      (Engine.Instance.txn_manager (node name).Cluster.Topology.instance)
  in
  let transfer_via name =
    let s = Citus.Api.connect_via citus (node name) in
    ignore (exec s "BEGIN");
    ignore
      (exec s
         (Printf.sprintf
            "UPDATE accounts SET balance = balance - 1 WHERE key = %d" k1));
    ignore
      (exec s
         (Printf.sprintf
            "UPDATE accounts SET balance = balance + 1 WHERE key = %d" k2));
    ignore (exec s "COMMIT")
  in
  Sim.Fault.refuse_statements fault ~from_:refused ~to_:target
    ~matching:"COMMIT PREPARED";
  transfer_via other;
  Alcotest.(check int) "another origin's COMMIT PREPARED lands" 0
    (List.length (prepared_on target));
  transfer_via refused;
  (match prepared_on target with
   | [ (gid, _) ] ->
     Alcotest.(check (option string)) "in the refused origin's namespace"
       (Some refused)
       (Option.map fst (Citus.State.parse_gid gid))
   | l ->
     Alcotest.fail
       (Printf.sprintf "expected one prepared transaction on %s, got %d"
          target (List.length l)));
  Alcotest.(check bool) "the rule is in force" true
    (Sim.Fault.refusal fault ~from_:refused ~to_:target
       ~sql:"COMMIT PREPARED 'g'"
    <> None);
  Sim.Fault.quiesce fault;
  Alcotest.(check (option string)) "quiesce clears the rule" None
    (Sim.Fault.refusal fault ~from_:refused ~to_:target
       ~sql:"COMMIT PREPARED 'g'");
  Citus.Api.maintenance citus;
  Alcotest.(check int) "recovery finished the refused commit" 0
    (List.length (prepared_on target));
  transfer_via refused;
  Alcotest.(check int) "after quiesce the origin commits directly" 0
    (List.length (prepared_on target));
  (* read through the last transfer's origin: a fresh session on another
     coordinator may read at an HLC snapshot older than that commit *)
  let s = Citus.Api.connect_via citus (node refused) in
  let balance k =
    one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k)
  in
  Alcotest.(check int) "all three debits applied" (initial_balance - 3)
    (balance k1);
  Alcotest.(check int) "all three credits applied" (initial_balance + 3)
    (balance k2)

(* A refusal that never matches is invisible: it draws nothing and
   traces nothing, so the storm replays bit-for-bit. *)
let test_idle_refusal_replays () =
  let idle =
    run_storm ~seed:25
      ~setup:(fun fault ->
        Sim.Fault.refuse_statements fault ~from_:"worker1" ~to_:"worker2"
          ~matching:"no statement contains this")
      ()
  in
  ignore (check_same_storm (run_storm ~seed:25 ()) idle : string list)

let test_metadata_sync_knob () =
  (* the set_config spelling of metadata sync: idempotent 'on' (also
     after the UDF already ran), and 'off' is a clean typed error —
     demotion is unsupported, never a half-synced cluster *)
  let cluster =
    Cluster.Topology.create ~workers:2 ~fault_seed:1 ~sched_seed:1 ()
  in
  let citus = Citus.Api.install ~shard_count:4 cluster in
  let s = Citus.Api.connect citus in
  ignore (exec s "SELECT citus_set_config('enable_metadata_sync', 'on')");
  ignore (exec s "SELECT citus_set_config('enable_metadata_sync', 'on')");
  Alcotest.(check int) "every node installed"
    (List.length (Cluster.Topology.all_nodes cluster))
    (List.length citus.Citus.Api.states);
  List.iter
    (fun (n : Cluster.Topology.node) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s promoted" n.Cluster.Topology.node_name)
        true
        (n.Cluster.Topology.role = Cluster.Topology.Coordinator))
    (Cluster.Topology.data_nodes cluster);
  match exec s "SELECT citus_set_config('enable_metadata_sync', 'off')" with
  | _ -> Alcotest.fail "disabling metadata sync must be rejected"
  | exception _ -> ()

let () =
  Alcotest.run "mx"
    [
      ( "seed-matrix",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "seed %d" seed)
              `Quick (test_seed seed))
          seed_matrix );
      ( "reproducibility",
        [ Alcotest.test_case "same seed, same storm" `Quick test_reproducible ]
      );
      ( "targeted-mx",
        [
          Alcotest.test_case "origin worker crash mid-fan-out" `Quick
            test_origin_crash_mid_fanout;
          Alcotest.test_case "worker coordinates without the coordinator"
            `Quick test_worker_coordinates_without_coordinator;
          Alcotest.test_case "metadata sync via set_config" `Quick
            test_metadata_sync_knob;
        ] );
      ( "refusal",
        [
          Alcotest.test_case "per origin, never runs, quiesce clears" `Quick
            test_refusal_is_per_origin;
          Alcotest.test_case "idle refusal replays bit-for-bit" `Quick
            test_idle_refusal_replays;
        ] );
    ]
