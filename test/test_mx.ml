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
   - the rest of [Chaos_kit.check_storm]: breakers closed, nothing
     pinned, replicas bit-identical, spans and gauges conserved;
   - bit-identical same-seed replay of the whole observable surface. *)

module Kit = Chaos_kit

let n_keys = 24
let n_txns = 40
let clock_step = 0.25
let exec = Kit.exec

(* Build the MX cluster: install, load, then replicate the catalog so
   every worker coordinates. The consistency knob is set through a
   WORKER session after the sync — citus_set_config must propagate it
   to every installed node. *)
let make_cluster ~seed ~replication =
  Kit.accounts_cluster ~seed ~n_keys ~replication
    ~setup:(fun cluster citus ->
      ignore (exec (Citus.Api.connect citus) "SELECT citus_enable_metadata_sync()");
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
        citus.Citus.Api.states)
    ()

(* --- the fault schedule: nobody is special --- *)

let schedule_faults cluster fault rng =
  let workers = Kit.worker_names cluster in
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

(* --- one full storm: one session per coordinating node --- *)

let run_storm ?(setup = ignore) ~seed () =
  let cluster, citus = make_cluster ~seed ~replication:2 in
  Obs.Trace.set_enabled (Cluster.Topology.trace cluster) true;
  let fault = Kit.fault_of cluster in
  let clock = cluster.Cluster.Topology.clock in
  let sched_rng = Random.State.make [| seed; 0x3fa9 |] in
  let wl_rng = Random.State.make [| seed; 0x0b5e |] in
  schedule_faults cluster fault sched_rng;
  setup fault;
  let coords = Cluster.Topology.data_nodes cluster in
  let sessions =
    List.map
      (fun n ->
        let connect () = Citus.Api.connect_via citus n in
        (n, connect, ref (connect ())))
      coords
  in
  let torn_reads = ref 0 in
  let outcomes = ref [] in
  for i = 1 to n_txns do
    Sim.Clock.advance clock clock_step;
    let node, connect, sref = List.nth sessions (i mod List.length sessions) in
    let k1 = Random.State.int wl_rng n_keys in
    let k2 = (k1 + 1 + Random.State.int wl_rng (n_keys - 1)) mod n_keys in
    let amount = 1 + Random.State.int wl_rng 10 in
    let o = Kit.transfer connect sref ~k1 ~k2 ~amount in
    outcomes := (node.Cluster.Topology.node_name, o) :: !outcomes;
    (* mid-storm snapshot reads from a different coordinator than the
       one that just wrote: any sum that returns at all must be the
       conserved total — a torn read is an invariant violation, not a
       transient *)
    if i mod 5 = 0 then begin
      let _, rconnect, rref =
        List.nth sessions ((i + 1) mod List.length sessions)
      in
      Kit.ensure_session rconnect rref;
      match Kit.sum_balances !rref with
      | total ->
        if total <> Kit.expected_total ~n_keys then incr torn_reads
      | exception _ -> ()
    end;
    if i = n_txns / 2 then (try Citus.Api.maintenance citus with _ -> ())
  done;
  Kit.heal cluster;
  Kit.bounce cluster;
  Kit.advance cluster;
  Kit.drain citus;
  Kit.write_pass ~n_keys citus;
  Citus.Api.maintenance citus;
  (cluster, citus, List.rev !outcomes, Kit.total citus, !torn_reads)

let test_seed seed () =
  let cluster, citus, outcomes, total, torn = run_storm ~seed () in
  Kit.check_storm ~seed ~n_keys cluster citus ~total
    ~outcomes:(List.map snd outcomes);
  Alcotest.(check int) (Kit.tag ~seed "no torn snapshot reads") 0 torn;
  (* the whole point of MX: transactions were coordinated off the
     bootstrap coordinator *)
  Alcotest.(check bool)
    (Kit.tag ~seed "workers coordinated transactions")
    true
    (Kit.counter cluster Obs.Metric_names.mx_worker_coordinated_txns > 0);
  Alcotest.(check bool)
    (Kit.tag ~seed "metadata syncs recorded")
    true
    (Kit.counter cluster Obs.Metric_names.mx_metadata_syncs > 0)

(* --- bit-for-bit reproducibility --- *)

let observe (cluster, _citus, outcomes, total, torn) =
  Kit.observe cluster ~total
    ~outcomes:(List.map (fun (n, o) -> n ^ ":" ^ Kit.outcome_name o) outcomes)
    ~extra:[ ("torn-read count", [ string_of_int torn ]) ]

let test_reproducible () =
  let a = observe (run_storm ~seed:25 ()) in
  let b = observe (run_storm ~seed:25 ()) in
  let other = observe (run_storm ~seed:26 ()) in
  Kit.check_replay a b ~other

(* --- targeted: the origin worker crashes mid-fan-out --- *)

let balance s k =
  Kit.one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k)

(* A worker-coordinated transfer whose COMMIT PREPARED fan-out is cut
   off, then the ORIGIN worker itself crashes. The participants hold
   prepared transactions in the origin's gid namespace; while the origin
   is down nobody may guess the outcome (its commit records are the
   only truth), and once it restarts, recovery must finish the commit
   from the origin's records. *)
let test_origin_crash_mid_fanout () =
  let seed = 77 in
  let cluster, citus = make_cluster ~seed ~replication:1 in
  let fault = Kit.fault_of cluster in
  let node_of = Kit.node_of citus in
  let origin = List.hd cluster.Cluster.Topology.workers in
  let origin_name = origin.Cluster.Topology.node_name in
  (* two keys on two nodes, neither the origin: a pure fan-out 2PC *)
  let foreign k = not (String.equal (node_of k) origin_name) in
  let k1 =
    let rec go k = if foreign k then k else go (k + 1) in
    go 0
  in
  let k2 =
    let rec go k =
      if foreign k && not (String.equal (node_of k) (node_of k1)) then k
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
  Kit.open_transfer s ~k1 ~k2 ~amount:7;
  (* cut the fan-out: both participants' COMMIT PREPARED will fail after
     the origin's local commit (commit records durable on the origin) *)
  Sim.Fault.refuse_statements fault ~from_:origin_name ~to_:(node_of k1)
    ~matching:"COMMIT PREPARED";
  Sim.Fault.refuse_statements fault ~from_:origin_name ~to_:(node_of k2)
    ~matching:"COMMIT PREPARED";
  ignore (exec s "COMMIT");
  Sim.Fault.clear_refusals fault;
  Alcotest.(check bool) "commit records durable on the origin worker" true
    (Citus.Twopc.commit_record_count origin_st > 0);
  (* both participants still hold prepared txns in the origin's namespace *)
  let prepared_on node = Kit.prepared_on cluster node in
  Alcotest.(check int) "participant 1 in doubt" 1 (prepared_on (node_of k1));
  Alcotest.(check int) "participant 2 in doubt" 1 (prepared_on (node_of k2));
  (* now the origin crashes: its commit records are unreachable *)
  Sim.Fault.crash_now fault origin_name;
  (try Citus.Api.maintenance citus with _ -> ());
  Alcotest.(check int)
    "origin down: participant 1 stays in doubt (no guessing)" 1
    (prepared_on (node_of k1));
  Alcotest.(check int)
    "origin down: participant 2 stays in doubt (no guessing)" 1
    (prepared_on (node_of k2));
  (* origin returns: recovery finishes the commit from its records *)
  Sim.Fault.restart_now fault origin_name;
  Kit.advance cluster;
  Kit.drain citus;
  let s = Citus.Api.connect citus in
  Alcotest.(check int) "debit committed by recovery" (Kit.initial_balance - 7)
    (balance s k1);
  Alcotest.(check int) "credit committed by recovery" (Kit.initial_balance + 7)
    (balance s k2);
  Kit.check_no_prepared ~seed cluster;
  Alcotest.(check int) "origin's commit records drained" 0
    (Citus.Twopc.commit_record_count origin_st);
  Alcotest.(check bool) "foreign-namespace resolutions counted" true
    (Kit.counter cluster Obs.Metric_names.mx_foreign_gids_resolved >= 0)

(* --- targeted: the bootstrap coordinator is down, a worker coordinates --- *)

let test_worker_coordinates_without_coordinator () =
  let seed = 78 in
  let cluster, citus = make_cluster ~seed ~replication:1 in
  let fault = Kit.fault_of cluster in
  Sim.Fault.crash_now fault "coordinator";
  let origin = List.hd cluster.Cluster.Topology.workers in
  let s = Citus.Api.connect_via citus origin in
  (* a genuine multi-node 2PC, planned and committed with the bootstrap
     coordinator dead *)
  let k1, k2 = Kit.cross_node_keys citus in
  Kit.open_transfer s ~k1 ~k2 ~amount:5;
  ignore (exec s "COMMIT");
  Alcotest.(check int) "debit visible via the worker" (Kit.initial_balance - 5)
    (balance s k1);
  Alcotest.(check int) "credit visible via the worker" (Kit.initial_balance + 5)
    (balance s k2);
  Sim.Fault.restart_now fault "coordinator";
  Kit.advance cluster;
  Kit.drain citus;
  Kit.check_no_prepared ~seed cluster;
  Alcotest.(check bool) "counted as worker-coordinated" true
    (Kit.counter cluster Obs.Metric_names.mx_worker_coordinated_txns > 0)

(* --- targeted: statement refusal is per origin --- *)

(* A [Sim.Fault] refusal cuts one origin's matching statements to one
   worker. Another MX coordinator's COMMIT PREPARED to that worker still
   lands; the refused origin's never runs, so its participant keeps the
   prepared transaction for recovery; [quiesce] clears the rule. *)
let test_refusal_is_per_origin () =
  let cluster, citus = make_cluster ~seed:79 ~replication:1 in
  let fault = Kit.fault_of cluster in
  let node name = Cluster.Topology.find_node cluster name in
  let refused = "worker1" and other = "worker2" and target = "worker3" in
  let rec key_on pred k =
    if pred (Kit.node_of citus k) then k else key_on pred (k + 1)
  in
  let k1 = key_on (String.equal target) 0 in
  let k2 = key_on (fun n -> not (String.equal n target)) 0 in
  let prepared_on name =
    Txn.Manager.prepared_transactions
      (Engine.Instance.txn_manager (node name).Cluster.Topology.instance)
  in
  let transfer_via name =
    let s = Citus.Api.connect_via citus (node name) in
    Kit.open_transfer s ~k1 ~k2 ~amount:1;
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
  Alcotest.(check int) "all three debits applied" (Kit.initial_balance - 3)
    (balance s k1);
  Alcotest.(check int) "all three credits applied" (Kit.initial_balance + 3)
    (balance s k2)

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
  Kit.check_same_storm (observe (run_storm ~seed:25 ())) (observe idle)

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
      ("seed-matrix", Kit.seed_cases test_seed (Kit.seed_matrix ~default:6 ~first:21));
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
