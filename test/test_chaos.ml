(* Seeded chaos harness (§3.7): pgbench-style balance transfers run under
   a randomized fault schedule — node crashes with WAL-replay restarts,
   asymmetric partitions, per-round-trip request/reply loss, and one-shot
   crashes armed on PREPARE TRANSACTION. Every run is a pure function of
   its seed: the fault plan draws from [Sim.Fault]'s seeded RNG on the
   cluster's virtual clock and the workload from its own seeded RNG, so a
   failure reproduces with the printed seed.

   After the storm the harness quiesces (heal everything, bounce every
   node to shed orphaned in-memory transactions, run the maintenance
   daemon until recovery and repair drain) and checks the invariants that
   define correctness here:

   - atomicity: transfers are balance-preserving, so the total must be
     exactly the initial total no matter which subset committed;
   - no orphaned prepared transactions on any node, no leaked commit
     records, no pinned transaction connections;
   - every circuit breaker back to Closed;
   - full replication restored (no Inactive placements, replicas of each
     shard bit-identical);
   - tracing survived: every span closed, no gauge negative.

   The checks, like the cluster, workload and replay comparison, are
   [Chaos_kit]'s, shared with the gray, MX and snapshot matrices. *)

module Kit = Chaos_kit

let n_keys = 24
let n_txns = 40
let clock_step = 0.25
let exec = Kit.exec

let make_cluster ~seed ~replication =
  Kit.accounts_cluster ~seed ~n_keys ~replication ()

(* --- the fault schedule --- *)

let schedule_faults cluster fault rng =
  let workers = Kit.worker_names cluster in
  let horizon = float_of_int n_txns *. clock_step in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let nodes = "coordinator" :: workers in
  (* crashes with WAL-replay restarts *)
  for _ = 1 to 3 do
    let at = Random.State.float rng (horizon *. 0.8) in
    let down_for = 0.5 +. Random.State.float rng 2.0 in
    Sim.Fault.schedule_crash fault ~at ~down_for (pick nodes)
  done;
  (* asymmetric partitions that heal on their own *)
  for _ = 1 to 3 do
    let at = Random.State.float rng (horizon *. 0.8) in
    let heal_after = 0.5 +. Random.State.float rng 2.0 in
    let w = pick workers in
    let from_, to_ =
      if Random.State.bool rng then ("coordinator", w) else (w, "coordinator")
    in
    Sim.Fault.schedule_partition ~heal_after fault ~at ~from_ ~to_
  done;
  (* background request/reply loss *)
  Sim.Fault.set_drop_rate fault
    ~request:(Random.State.float rng 0.03)
    ~reply:(Random.State.float rng 0.03);
  (* sometimes, a worker dies right between PREPARE and COMMIT PREPARED *)
  if Random.State.bool rng then
    Sim.Fault.arm_crash_after fault ~node:(pick workers)
      ~matching:"PREPARE TRANSACTION"
      ~lose_reply:(Random.State.bool rng) ()

(* --- one full chaos run --- *)

(* Mid-storm shard move: fire citus_move_shard_placement from SQL while
   transfers and faults are in flight. A move that hits a dead node or a
   cutover lock conflict fails cleanly — the invariants only require
   that whatever it did is consistent and fully accounted. *)
let fire_move cluster citus wl_rng connect sref =
  Kit.ensure_session connect sref;
  let meta = citus.Citus.Api.metadata in
  let shards = Citus.Metadata.shards_of meta "accounts" in
  let sh = List.nth shards (Random.State.int wl_rng (List.length shards)) in
  let workers = Kit.worker_names cluster in
  let to_node = List.nth workers (Random.State.int wl_rng (List.length workers)) in
  try
    ignore
      (exec !sref
         (Printf.sprintf "SELECT citus_move_shard_placement(%d, '%s')"
            sh.Citus.Metadata.shard_id to_node))
  with _ -> ()

let run_chaos ?(moves = false) ~seed () =
  let cluster, citus = make_cluster ~seed ~replication:2 in
  (* the storm runs fully traced: conservation and reproducibility of
     the span stream are part of the checked surface *)
  Obs.Trace.set_enabled (Cluster.Topology.trace cluster) true;
  let fault = Kit.fault_of cluster in
  let clock = cluster.Cluster.Topology.clock in
  (* distinct streams: the fault plan owns the fault RNG; the schedule and
     the workload draw from their own, all derived from the seed *)
  let sched_rng = Random.State.make [| seed; 0xfa07 |] in
  let wl_rng = Random.State.make [| seed; 0x0b5e |] in
  schedule_faults cluster fault sched_rng;
  let connect () = Citus.Api.connect citus in
  let sref = ref (connect ()) in
  let outcomes = ref [] in
  for i = 1 to n_txns do
    Sim.Clock.advance clock clock_step;
    let k1 = Random.State.int wl_rng n_keys in
    let k2 = (k1 + 1 + Random.State.int wl_rng (n_keys - 1)) mod n_keys in
    let amount = 1 + Random.State.int wl_rng 10 in
    outcomes := Kit.transfer connect sref ~k1 ~k2 ~amount :: !outcomes;
    if moves && i mod 10 = 3 then fire_move cluster citus wl_rng connect sref;
    (* occasional reads keep the failover path under fire too *)
    if i mod 5 = 0 then begin
      Kit.ensure_session connect sref;
      try ignore (exec !sref "SELECT count(*) FROM accounts") with _ -> ()
    end;
    (* a mid-storm maintenance pass: recovery must be idempotent and
       partition-safe while faults are still active. Repair may hit an
       unreachable node and give up for this round — that is fine, the
       post-quiescence passes settle it *)
    if i = n_txns / 2 then ( try Citus.Api.maintenance citus with _ -> ())
  done;
  Kit.heal cluster;
  Kit.bounce cluster;
  Kit.advance cluster;
  Kit.drain citus;
  Kit.write_pass ~n_keys citus;
  Citus.Api.maintenance citus;
  (cluster, citus, List.rev !outcomes, Kit.total citus)

let test_seed ?moves seed () =
  let cluster, citus, outcomes, total = run_chaos ?moves ~seed () in
  Kit.check_storm ~seed ~n_keys cluster citus ~total ~outcomes

let seed_matrix = Kit.seed_matrix ~default:8 ~first:1

(* chaos over the rebalancer: same storm, with shard moves fired
   mid-workload; some seeds move onto dead nodes, some cut over under
   lock contention. Half as many seeds as the storm matrix. *)
let move_seed_matrix =
  List.init (max 1 (List.length seed_matrix / 2)) (fun i -> i + 11)

(* --- bit-for-bit reproducibility --- *)

let observe (cluster, _citus, outcomes, total) =
  Kit.observe cluster ~outcomes:(List.map Kit.outcome_name outcomes) ~total

let test_reproducible () =
  let a = observe (run_chaos ~moves:true ~seed:5 ()) in
  let b = observe (run_chaos ~moves:true ~seed:5 ()) in
  let other = observe (run_chaos ~seed:6 ()) in
  Kit.check_replay a b ~other

(* --- targeted: worker crash between PREPARE and COMMIT PREPARED, with a
   concurrent (asymmetric) partition of the other participant --- *)

let balance s k =
  Kit.one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k)

(* Abort-side convergence. The transfer's first-prepared worker crashes
   right after PREPARE TRANSACTION executes; the other participant's
   reply link is already cut, so its PREPARE executes but looks failed.
   The coordinator aborts, no commit record becomes durable, and recovery
   must roll both prepared transactions back once the storm clears. *)
let test_prepare_crash_with_partition ~lose_reply () =
  let seed = 42 in
  let cluster, citus = make_cluster ~seed ~replication:1 in
  let fault = Kit.fault_of cluster in
  let k1, k2 = Kit.cross_node_keys citus in
  let w1 = Kit.node_of citus k1 and w2 = Kit.node_of citus k2 in
  let s = Citus.Api.connect citus in
  Kit.open_transfer s ~k1 ~k2 ~amount:7;
  (* txn_conns holds [w2's conn; w1's conn], so PREPARE reaches w2 first:
     arm the crash there, and cut w1's reply link so its PREPARE (if
     reached) executes without the coordinator learning of it *)
  Sim.Fault.arm_crash_after fault ~node:w2 ~matching:"PREPARE TRANSACTION"
    ~lose_reply ();
  Sim.Fault.partition_link fault ~from_:w1 ~to_:"coordinator";
  (match exec s "COMMIT" with
   | _ -> Alcotest.fail "COMMIT had to fail: a participant just crashed"
   | exception _ -> ());
  Kit.rollback_quietly s;
  (* the crashed worker holds its prepared transaction durably *)
  Alcotest.(check bool) "w2 is down" false (Sim.Fault.node_up fault w2);
  (* storm over: restart the worker (WAL replay), heal the link, recover *)
  Kit.heal cluster;
  Kit.advance cluster;
  Kit.drain citus;
  let s = Citus.Api.connect citus in
  Alcotest.(check int) "transfer rolled back everywhere: total intact"
    (Kit.expected_total ~n_keys) (Kit.sum_balances s);
  Alcotest.(check int) "debit absent" Kit.initial_balance (balance s k1);
  Alcotest.(check int) "credit absent" Kit.initial_balance (balance s k2);
  Kit.check_no_prepared ~seed cluster;
  Kit.check_commit_records ~seed citus

(* Commit-side convergence: the last-prepared worker crashes after its
   PREPARE succeeds, so the coordinator commits locally with durable
   commit records, loses the COMMIT PREPARED fan-out to the dead node,
   and recovery must finish the commit there after the restart. *)
let test_prepare_crash_commit_side () =
  let seed = 43 in
  let cluster, citus = make_cluster ~seed ~replication:1 in
  let fault = Kit.fault_of cluster in
  let k1, k2 = Kit.cross_node_keys citus in
  let w1 = Kit.node_of citus k1 in
  let st = Citus.Api.coordinator_state citus in
  let s = Citus.Api.connect citus in
  Kit.open_transfer s ~k1 ~k2 ~amount:7;
  (* w1's conn is prepared last: its PREPARE succeeds, then it dies *)
  Sim.Fault.arm_crash_after fault ~node:w1 ~matching:"PREPARE TRANSACTION" ();
  ignore (exec s "COMMIT");
  (* the client saw success; the dead participant is owed a COMMIT
     PREPARED, witnessed by the retained commit record *)
  Alcotest.(check bool) "commit record retained for the dead node" true
    (Citus.Twopc.commit_record_count st > 0);
  Alcotest.(check int) "fan-out failure counted" 1
    (Citus.Health.failed_commits st.Citus.State.health w1);
  Sim.Fault.restart_now fault w1;
  Kit.advance cluster;
  Kit.drain citus;
  let s = Citus.Api.connect citus in
  Alcotest.(check int) "debit committed by recovery" (Kit.initial_balance - 7)
    (balance s k1);
  Alcotest.(check int) "credit committed" (Kit.initial_balance + 7)
    (balance s k2);
  Kit.check_commit_records ~seed citus;
  Kit.check_no_prepared ~seed cluster

let () =
  Alcotest.run "chaos"
    [
      ("seed-matrix", Kit.seed_cases test_seed seed_matrix);
      ( "move-matrix",
        Kit.seed_cases ~label:"moves under fire, seed"
          (fun seed -> test_seed ~moves:true seed)
          move_seed_matrix );
      ( "reproducibility",
        [ Alcotest.test_case "same seed, same run" `Quick test_reproducible ] );
      ( "targeted-2pc",
        [
          Alcotest.test_case "prepare crash + partition (reply kept)" `Quick
            (test_prepare_crash_with_partition ~lose_reply:false);
          Alcotest.test_case "prepare crash + partition (reply lost)" `Quick
            (test_prepare_crash_with_partition ~lose_reply:true);
          Alcotest.test_case "prepare crash, commit side" `Quick
            test_prepare_crash_commit_side;
        ] );
    ]
