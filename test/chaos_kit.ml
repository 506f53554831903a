(* The storm harness shared by the seeded chaos matrices (test_chaos,
   test_gray, test_mx, test_snapshot): the accounts cluster, the
   balance-transfer workload and its outcome taxonomy, the quiescence
   steps, the post-storm invariant checks, the seed-width knob and the
   same-seed replay comparison.

   Every storm is a pure function of its seed. The suites own their
   fault schedules and workload loops, and with them every RNG stream,
   salt and draw; nothing here draws a random value. *)

(* --- SQL helpers --- *)

let exec s sql = Engine.Instance.exec s sql

let one_int s sql =
  match (exec s sql).Engine.Instance.rows with
  | [ [| Datum.Int i |] ] -> i
  | rows ->
    Alcotest.fail
      (Printf.sprintf "expected one int from %S, got %d rows" sql
         (List.length rows))

let rollback_quietly s = try ignore (exec s "ROLLBACK") with _ -> ()

let fault_of cluster =
  match Cluster.Topology.fault cluster with
  | Some f -> f
  | None -> Alcotest.fail "cluster has no fault plan"

let counter cluster name =
  Obs.Metrics.counter_value (Cluster.Topology.metrics cluster) name

let worker_names cluster =
  List.map
    (fun (n : Cluster.Topology.node) -> n.Cluster.Topology.node_name)
    cluster.Cluster.Topology.workers

let prepared_on cluster node =
  List.length
    (Txn.Manager.prepared_transactions
       (Engine.Instance.txn_manager
          (Cluster.Topology.find_node cluster node).Cluster.Topology.instance))

(* --- the accounts cluster --- *)

let initial_balance = 100
let expected_total ~n_keys = n_keys * initial_balance

(* Create and load [accounts]: one row per key, each holding
   [initial_balance]; [in_txn] loads all rows in one BEGIN/COMMIT. *)
let create_accounts ?(in_txn = false) ~n_keys s =
  ignore
    (exec s "CREATE TABLE accounts (key bigint PRIMARY KEY, balance bigint)");
  ignore (exec s "SELECT create_distributed_table('accounts', 'key')");
  if in_txn then ignore (exec s "BEGIN");
  for k = 0 to n_keys - 1 do
    ignore
      (exec s
         (Printf.sprintf "INSERT INTO accounts (key, balance) VALUES (%d, %d)"
            k initial_balance))
  done;
  if in_txn then ignore (exec s "COMMIT")

(* A coordinator and three workers with a loaded [accounts] table. The
   seed drives the fault plan and the scheduler's ready-queue
   tiebreaks, so fiber interleavings are a fuzzed dimension of the storm
   and same-seed runs replay them bit-for-bit. [setup] runs after the
   load: knobs and metadata sync. *)
let accounts_cluster ?in_txn ?(setup = fun _ _ -> ()) ~seed ~n_keys
    ~replication () =
  let cluster =
    Cluster.Topology.create ~workers:3 ~fault_seed:seed ~sched_seed:seed ()
  in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  Citus.Api.set_replication_factor citus replication;
  create_accounts ?in_txn ~n_keys (Citus.Api.connect citus);
  setup cluster citus;
  (cluster, citus)

let node_of citus k =
  let meta = citus.Citus.Api.metadata in
  Citus.Metadata.placement meta
    (Citus.Metadata.shard_for_value meta ~table:"accounts" (Datum.Int k))
      .Citus.Metadata.shard_id

(* [k1] and the next key whose primary placement lives on another node,
   so a transfer between them is a genuine multi-node 2PC. *)
let cross_node_keys ?(k1 = 0) citus =
  let rec find k =
    if k > k1 + 1000 then Alcotest.fail "no second node?"
    else if String.equal (node_of citus k) (node_of citus k1) then find (k + 1)
    else k
  in
  (k1, find (k1 + 1))

let sum_balances s = one_int s "SELECT sum(balance) FROM accounts"
let total citus = sum_balances (Citus.Api.connect citus)

(* --- the workload --- *)

type outcome = Committed | Failed | Unknown

let outcome_name = function
  | Committed -> "committed"
  | Failed -> "failed"
  | Unknown -> "unknown"

let ensure_session connect sref =
  if not (Engine.Instance.session_alive !sref) then sref := connect ()

(* BEGIN and the two balance updates of a transfer, each with the label
   a timed wrapper reports it under. *)
let transfer_body ~k1 ~k2 ~amount =
  [
    ("BEGIN", "BEGIN");
    ( Printf.sprintf "debit %d" k1,
      Printf.sprintf "UPDATE accounts SET balance = balance - %d WHERE key = %d"
        amount k1 );
    ( Printf.sprintf "credit %d" k2,
      Printf.sprintf "UPDATE accounts SET balance = balance + %d WHERE key = %d"
        amount k2 );
  ]

(* Run [transfer_body] on [s], leaving the transaction open for COMMIT. *)
let open_transfer s ~k1 ~k2 ~amount =
  List.iter (fun (_, sql) -> ignore (exec s sql)) (transfer_body ~k1 ~k2 ~amount)

(* One transfer on the session in [sref], reconnected through [connect]
   if it died. [wrap] runs each statement (a timer, say) and must let
   its exception through. The outcome taxonomy matters: an error before
   COMMIT is a clean abort (Failed); an error during COMMIT leaves the
   true outcome undetermined at the client (Unknown) — 2PC recovery
   decides it later. *)
let transfer ?(wrap = fun ~label:_ f -> f ()) connect sref ~k1 ~k2 ~amount =
  ensure_session connect sref;
  let s = !sref in
  let ok (label, sql) =
    match wrap ~label (fun () -> ignore (exec s sql)) with
    | () -> true
    | exception _ -> false
  in
  if List.for_all ok (transfer_body ~k1 ~k2 ~amount) then
    if ok ("COMMIT", "COMMIT") then Committed
    else begin
      rollback_quietly s;
      Unknown
    end
  else begin
    rollback_quietly s;
    Failed
  end

(* --- quiescence, one step at a time --- *)

(* Lift every fault: crashed nodes restart, links heal, rules clear. *)
let heal cluster = Sim.Fault.quiesce (fault_of cluster)

(* Crash and restart every node: lost round trips can leave orphaned
   in-memory transactions holding locks on workers; a restart sheds them
   while everything durable (prepared transactions, commit records,
   committed rows) survives the WAL replay. *)
let bounce cluster =
  let fault = fault_of cluster in
  List.iter
    (fun (n : Cluster.Topology.node) ->
      Sim.Fault.crash_now fault n.Cluster.Topology.node_name;
      Sim.Fault.restart_now fault n.Cluster.Topology.node_name)
    (Cluster.Topology.all_nodes cluster)

let advance cluster = Sim.Clock.advance cluster.Cluster.Topology.clock 30.0

(* Recovery and repair are idempotent; three passes drain multi-step
   resolutions (commit prepared, then GC, then re-replication). *)
let drain citus =
  for _ = 1 to 3 do
    Citus.Api.maintenance citus
  done

(* A post-storm write pass: touches every key, so every replica takes a
   write and half-open breakers close through real successes. The +0
   update is balance-neutral by construction. *)
let write_pass ~n_keys citus =
  let s = Citus.Api.connect citus in
  for k = 0 to n_keys - 1 do
    ignore
      (Citus.Api.exec_with_retries citus s
         (Printf.sprintf
            "UPDATE accounts SET balance = balance + 0 WHERE key = %d" k))
  done

(* --- post-storm checks; every message is tagged [seed N] --- *)

let tag ~seed m = Printf.sprintf "[seed %d] %s" seed m

(* atomicity: transfers are balance-preserving, so the total must be
   exactly the initial total no matter which subset committed *)
let check_conserved ~seed ~n_keys total =
  Alcotest.(check int)
    (tag ~seed "total balance conserved")
    (expected_total ~n_keys) total

(* a storm that failed every transfer would vacuously conserve it *)
let check_some_committed ~seed outcomes =
  Alcotest.(check bool)
    (tag ~seed "some transfers committed")
    true
    (List.mem Committed outcomes)

(* in every gid namespace: each resolves against its origin's records *)
let check_no_prepared ~seed cluster =
  List.iter
    (fun (n : Cluster.Topology.node) ->
      let name = n.Cluster.Topology.node_name in
      Alcotest.(check int)
        (tag ~seed
           (Printf.sprintf "no orphaned prepared transactions on %s" name))
        0 (prepared_on cluster name))
    (Cluster.Topology.all_nodes cluster)

let check_commit_records ~seed citus =
  List.iter
    (fun (st : Citus.State.t) ->
      Alcotest.(check int)
        (tag ~seed
           (Printf.sprintf "commit records drained on %s"
              st.Citus.State.local.Cluster.Topology.node_name))
        0
        (Citus.Twopc.commit_record_count st))
    citus.Citus.Api.states

(* including the breakers that slowness tripped *)
let check_breakers_closed ~seed citus =
  let st = Citus.Api.coordinator_state citus in
  List.iter
    (fun (r : Citus.Health.node_report) ->
      Alcotest.(check string)
        (tag ~seed (Printf.sprintf "breaker closed on %s" r.Citus.Health.nr_node))
        "closed"
        (Citus.Health.breaker_name
           (Citus.Health.breaker_state st.Citus.State.health
              r.Citus.Health.nr_node)))
    (Citus.Health.report st.Citus.State.health)

let check_no_pinned ~seed citus =
  let st = Citus.Api.coordinator_state citus in
  Alcotest.(check int) (tag ~seed "no txn conns pinned") 0
    (Citus.State.leaked_txn_conns st);
  Alcotest.(check int) (tag ~seed "no prepared pairs pinned") 0
    (Citus.State.leaked_prepared st)

(* catalog replicas advanced in lockstep: same version, same placement
   map on every metadata-synced node *)
let check_catalog_lockstep ~seed citus =
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
        (tag ~seed (Printf.sprintf "catalog version in lockstep on %s" name))
        (Citus.Metadata.version origin)
        (Citus.Metadata.version st.Citus.State.metadata);
      if placement_map st.Citus.State.metadata <> placement_map origin then
        Alcotest.fail
          (tag ~seed (Printf.sprintf "placement map diverged on %s" name)))
    citus.Citus.Api.states

(* full replication restored: no Inactive placements, and the replicas
   of each shard bit-identical *)
let check_replicas ~seed cluster citus =
  let meta = citus.Citus.Api.metadata in
  Alcotest.(check int)
    (tag ~seed "no inactive placements")
    0
    (List.length (Citus.Metadata.inactive_placements meta));
  let show rows =
    String.concat "; "
      (List.map
         (fun row ->
           String.concat ","
             (Array.to_list (Array.map (Format.asprintf "%a" Datum.pp) row)))
         rows)
  in
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      let shard_table = Citus.Metadata.shard_name sh in
      let rows_on node =
        let inst =
          (Cluster.Topology.find_node cluster node).Cluster.Topology.instance
        in
        (exec (Engine.Instance.connect inst)
           (Printf.sprintf "SELECT key, balance FROM %s ORDER BY key"
              shard_table))
          .Engine.Instance.rows
      in
      match Citus.Metadata.placements meta sh.Citus.Metadata.shard_id with
      | [] -> Alcotest.fail (tag ~seed (shard_table ^ " lost every placement"))
      | first :: rest ->
        let reference = rows_on first in
        List.iter
          (fun node ->
            let got = rows_on node in
            if got <> reference then
              Alcotest.fail
                (tag ~seed
                   (Printf.sprintf "%s diverged: %s has [%s], %s has [%s]"
                      shard_table first (show reference) node (show got))))
          rest)
    (Citus.Metadata.shards_of meta "accounts")

(* The observability layer survived the storm: every span opened was
   closed (exceptions included), nothing is left on the open-span stack,
   no gauge went negative, and the breaker-trip gauge settled back to
   zero along with the breakers themselves. *)
let check_obs ~seed cluster =
  let obs = Cluster.Topology.obs cluster in
  Alcotest.(check int)
    (tag ~seed "every span opened was closed")
    (Obs.Trace.started obs.Obs.trace)
    (Obs.Trace.finished obs.Obs.trace);
  Alcotest.(check int) (tag ~seed "no span left open") 0
    (Obs.Trace.open_count obs.Obs.trace);
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (tag ~seed (Printf.sprintf "gauge %s non-negative (%f)" name v))
        true (v >= 0.0))
    (Obs.Metrics.snapshot obs.Obs.metrics).Obs.Metrics.s_gauges;
  Alcotest.(check (float 0.0))
    (tag ~seed "breaker-trip gauge settled")
    0.0
    (Obs.Metrics.gauge_value obs.Obs.metrics "breaker.tripped");
  Alcotest.(check bool)
    (tag ~seed "rebalance moves: completed <= started")
    true
    (counter cluster "rebalance.moves_completed"
    <= counter cluster "rebalance.moves_started")

(* Every post-storm check above, as each storm suite runs them. *)
let check_storm ~seed ~n_keys cluster citus ~total ~outcomes =
  check_conserved ~seed ~n_keys total;
  check_no_pinned ~seed citus;
  check_no_prepared ~seed cluster;
  check_commit_records ~seed citus;
  check_breakers_closed ~seed citus;
  check_catalog_lockstep ~seed citus;
  check_replicas ~seed cluster citus;
  check_obs ~seed cluster;
  check_some_committed ~seed outcomes

(* --- the seed matrix --- *)

(* [default] storm seeds from [first] on. CHAOS_SEEDS=n widens (or
   narrows) every matrix without touching the repro contract: every
   check is tagged [seed N] and any failure replays by running that
   seed. *)
let seed_matrix ~default ~first =
  let n =
    match Sys.getenv_opt "CHAOS_SEEDS" with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> n
      | _ ->
        invalid_arg
          (Printf.sprintf "CHAOS_SEEDS must be a positive integer, got %S" v))
  in
  List.init n (fun i -> i + first)

let seed_cases ?(label = "seed") test matrix =
  List.map
    (fun seed ->
      Alcotest.test_case (Printf.sprintf "%s %d" label seed) `Quick (test seed))
    matrix

(* --- bit-for-bit reproducibility --- *)

(* Everything a storm shows from outside; [extra] carries the suite's
   own observables, each named for its check. *)
type observed = {
  trace : string list;
  outcomes : string list;
  total : int;
  extra : (string * string list) list;
  metrics : string;
  spans : string list;
  clock : float;
}

let observe ?(extra = []) cluster ~outcomes ~total =
  let obs = Cluster.Topology.obs cluster in
  {
    trace = Sim.Fault.trace (fault_of cluster);
    outcomes;
    total;
    extra;
    metrics = Obs.Metrics.render (Obs.Metrics.snapshot obs.Obs.metrics);
    spans = Obs.Trace.render_tree (Obs.Trace.spans obs.Obs.trace);
    clock = Sim.Clock.now cluster.Cluster.Topology.clock;
  }

(* Two storms are bit-identical in everything observable. *)
let check_same_storm a b =
  Alcotest.(check (list string)) "same fault trace" a.trace b.trace;
  Alcotest.(check (list string)) "same outcomes" a.outcomes b.outcomes;
  Alcotest.(check int) "same total" a.total b.total;
  List.iter2
    (fun (name, xa) (_, xb) -> Alcotest.(check (list string)) ("same " ^ name) xa xb)
    a.extra b.extra;
  Alcotest.(check string) "bit-identical metric snapshot" a.metrics b.metrics;
  Alcotest.(check (list string)) "bit-identical span tree" a.spans b.spans;
  Alcotest.(check (float 0.0)) "same virtual clock" a.clock b.clock

(* [a] and [b] replay one seed; [c] runs another, which must draw a
   different fault schedule. *)
let check_replay a b ~other:c =
  check_same_storm a b;
  Alcotest.(check bool) "different seed, different storm" true
    (a.trace <> c.trace)
