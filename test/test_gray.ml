(* Gray-failure chaos: seeded stall storms. Unlike test_chaos (crashes,
   partitions, lost replies) every node here stays up and every message
   eventually arrives — replies just land seconds late. Brownouts, ambient
   latency and micro-stalls at scheduler suspension points churn under a
   pgbench-style transfer/read workload with statement timeouts and
   hedged reads enabled.

   The checked surface, per seed:

   - boundedness: every statement either completes or fails within its
     deadline plus a small epsilon (two bounded phases for COMMIT) — a
     statement that waits out a multi-second stall is a bug even if it
     eventually succeeds;
   - no leaks: once the storm quiesces, no transaction connection is
     pinned, no prepared pair is orphaned, every span opened was closed;
   - no duplicated side effects: hedging is reads-only, so the transfer
     total is conserved exactly;
   - convergence: prepared transactions and commit records drain, every
     breaker (including slow-trips) returns to Closed, replicas end
     bit-identical;
   - reproducibility: the same seed replays the same fault trace,
     outcomes, totals, metric snapshot and span tree bit-for-bit. *)

module Kit = Chaos_kit

let n_keys = 16
let n_stmts = 30
let clock_step = 0.25
let timeout = 0.5
let hedge_threshold = 0.05

(* covers ambient latency draws, modeled fragment costs, suspension-point
   micro-stalls and posted-rollback cleanup — but not a real stall, whose
   extra delay starts at 1s *)
let epsilon = 0.3

let make_cluster ~seed =
  Kit.accounts_cluster ~seed ~n_keys ~replication:2
    ~setup:(fun _ citus ->
      let st = Citus.Api.coordinator_state citus in
      st.Citus.State.config.Citus.State.statement_timeout <- timeout;
      st.Citus.State.config.Citus.State.hedge_threshold <- hedge_threshold)
    ()

(* --- the storm: only gray faults, nothing ever dies --- *)

let schedule_storm cluster fault rng =
  let workers = Kit.worker_names cluster in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let horizon = float_of_int n_stmts *. clock_step in
  (* ambient link latency: small, jittered, always on *)
  Sim.Fault.set_latency fault ~mean:0.005 ~jitter:0.005;
  (* brownouts: a worker's replies land seconds late for a while — far
     past the statement deadline, nowhere near a crash *)
  for _ = 1 to 4 do
    let at = Random.State.float rng (horizon *. 0.9) in
    let extra = 1.0 +. Random.State.float rng 5.0 in
    let duration = 0.5 +. Random.State.float rng 2.0 in
    Sim.Fault.schedule_stall fault ~at ~extra ~duration (pick workers)
  done;
  (* micro-stalls at scheduler suspension points *)
  Sim.Fault.set_suspension_hazard fault ~p:0.02 ~stall:0.002

(* --- the timed workload --- *)

(* Every statement is timed on the virtual clock against its deadline
   bound, whether it returns or raises; overshoots are collected and
   failing is deferred to the end so a violation reports the worst
   offender, tagged with its seed. *)
let timed cluster violations ~bound ~label f =
  let clock = cluster.Cluster.Topology.clock in
  let t0 = Sim.Clock.now clock in
  Fun.protect f ~finally:(fun () ->
      let elapsed = Sim.Clock.now clock -. t0 in
      if elapsed > bound then violations := (label, elapsed, bound) :: !violations)

let transfer cluster violations connect sref ~k1 ~k2 ~amount =
  let one = timeout +. epsilon in
  (* COMMIT runs two bounded phases (PREPARE, COMMIT PREPARED) *)
  let two = (2.0 *. timeout) +. epsilon in
  Kit.transfer connect sref ~k1 ~k2 ~amount ~wrap:(fun ~label f ->
      let bound = if String.equal label "COMMIT" then two else one in
      timed cluster violations ~bound ~label f)

let read cluster violations connect sref k =
  Kit.ensure_session connect sref;
  let s = !sref in
  match
    timed cluster violations ~bound:(timeout +. epsilon)
      ~label:(Printf.sprintf "read %d" k)
      (fun () ->
        ignore
          (Kit.exec s
             (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k)))
  with
  | () -> ()
  | exception _ -> Kit.rollback_quietly s

(* --- one full storm --- *)

let run_gray ~seed () =
  let cluster, citus = make_cluster ~seed in
  Obs.Trace.set_enabled (Cluster.Topology.trace cluster) true;
  let fault = Kit.fault_of cluster in
  let clock = cluster.Cluster.Topology.clock in
  let storm_rng = Random.State.make [| seed; 0x57a1 |] in
  let wl_rng = Random.State.make [| seed; 0x0b5e |] in
  schedule_storm cluster fault storm_rng;
  let violations = ref [] in
  let outcomes = ref [] in
  let connect () = Citus.Api.connect citus in
  let sref = ref (connect ()) in
  for i = 1 to n_stmts do
    Sim.Clock.advance clock clock_step;
    if i mod 3 = 0 then
      (* a single-shard read: the hedging path under fire *)
      read cluster violations connect sref (Random.State.int wl_rng n_keys)
    else begin
      let k1 = Random.State.int wl_rng n_keys in
      let k2 = (k1 + 1 + Random.State.int wl_rng (n_keys - 1)) mod n_keys in
      let amount = 1 + Random.State.int wl_rng 10 in
      outcomes :=
        transfer cluster violations connect sref ~k1 ~k2 ~amount :: !outcomes
    end
  done;
  (* lift the stalls, let everything drain *)
  Kit.heal cluster;
  Kit.advance cluster;
  Kit.drain citus;
  Kit.write_pass ~n_keys citus;
  Citus.Api.maintenance citus;
  (cluster, citus, List.rev !outcomes, List.rev !violations, Kit.total citus)

(* --- invariants --- *)

let check_bounded ~seed violations =
  match
    List.sort (fun (_, a, _) (_, b, _) -> compare b a) violations
  with
  | [] -> ()
  | (label, elapsed, bound) :: _ ->
    Alcotest.fail
      (Printf.sprintf
         "[seed %d] %d statement(s) overshot their deadline; worst: %s took \
          %.3fs against a %.3fs bound — a stalled node leaked into the \
          client's latency"
         seed (List.length violations) label elapsed bound)

(* Counters accumulated across the matrix: the boundedness check is
   vacuous if no statement ever overlapped a stall, so the last test of
   the matrix asserts the storm really bit somewhere. *)
let matrix_timeouts = ref 0
let matrix_hedges = ref 0
let matrix_deadline_awaits = ref 0

let test_seed seed () =
  let cluster, citus, outcomes, violations, total = run_gray ~seed () in
  let counter = Kit.counter cluster in
  matrix_timeouts := !matrix_timeouts + counter "exec.timeouts";
  matrix_hedges := !matrix_hedges + counter "exec.hedged_reads";
  matrix_deadline_awaits := !matrix_deadline_awaits + counter "net.await_timed_out";
  check_bounded ~seed violations;
  (* hedging never duplicated a side effect: transfers conserved the
     total exactly *)
  Kit.check_storm ~seed ~n_keys cluster citus ~total ~outcomes

(* runs after the matrix (Alcotest executes cases in order, one process) *)
let test_storm_was_live () =
  Alcotest.(check bool)
    (Printf.sprintf
       "statements really hit stalls across the matrix (timeouts=%d \
        hedges=%d deadline awaits=%d)"
       !matrix_timeouts !matrix_hedges !matrix_deadline_awaits)
    true
    (!matrix_timeouts > 0 && !matrix_hedges > 0 && !matrix_deadline_awaits > 0)

(* --- bit-for-bit reproducibility --- *)

let observe (cluster, _citus, outcomes, violations, total) =
  Kit.observe cluster ~outcomes:(List.map Kit.outcome_name outcomes) ~total
    ~extra:
      [
        ( "overshoot list",
          List.map (fun (l, e, _) -> Printf.sprintf "%s %.6f" l e) violations );
      ]

let test_reproducible () =
  let a = observe (run_gray ~seed:3 ()) in
  let b = observe (run_gray ~seed:3 ()) in
  let other = observe (run_gray ~seed:4 ()) in
  Kit.check_replay a b ~other

let () =
  Alcotest.run "gray"
    [
      ( "stall-matrix",
        Kit.seed_cases test_seed (Kit.seed_matrix ~default:8 ~first:1)
        @ [ Alcotest.test_case "the storm was live" `Quick test_storm_was_live ]
      );
      ( "reproducibility",
        [ Alcotest.test_case "same seed, same storm" `Quick test_reproducible ] );
    ]
