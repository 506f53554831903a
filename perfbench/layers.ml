(* Per-layer measurement from outside the program: counter snapshots
   diffed around each op, and replays of a sampled op's inputs through
   each layer's public entry point. *)

(* Obs.Metrics counters read around every op of the traced run. *)
let counter_names =
  [|
    "exec.tasks";
    "exec.conn_opened";
    "exec.conn_affinity_reuse";
    "planner.tier.fast_path";
    "planner.tier.router";
    "planner.tier.pushdown";
    "planner.tier.dml";
    "plancache.hits";
    "plancache.misses";
    "plancache.bypass";
    "twopc.started";
    "twopc.delegated_commits";
    "engine.maintenance_ticks";
  |]

type snap = {
  meters : Engine.Meter.snapshot list;  (** one per node, topology order *)
  net : Cluster.Topology.net_stats;
  buf : Storage.Buffer_pool.stats list;
  counters : int array;
  wal_coordinator : int;
  wal_workers : int;
  vclock : float;
  gc : Gc.stat;
}

let nodes (db : Workloads.Db.t) = Cluster.Topology.all_nodes db.Workloads.Db.cluster

let wal (n : Cluster.Topology.node) =
  Txn.Manager.wal (Engine.Instance.txn_manager n.Cluster.Topology.instance)

(* records appended so far; [Txn.Wal.size] walks the whole log *)
let wal_lsn n = Txn.Wal.current_lsn (wal n)

let snap (db : Workloads.Db.t) =
  let cluster = db.Workloads.Db.cluster in
  let metrics = Cluster.Topology.metrics cluster in
  let ns = nodes db in
  let meters =
    List.map (fun (n : Cluster.Topology.node) -> Engine.Meter.read (Engine.Instance.meter n.instance)) ns
  in
  let buf =
    List.map
      (fun (n : Cluster.Topology.node) ->
        Storage.Buffer_pool.stats (Engine.Instance.buffer_pool n.instance))
      ns
  in
  let wal_workers =
    List.fold_left (fun a n -> a + wal_lsn n) 0 cluster.Cluster.Topology.workers
  in
  {
    meters;
    net = Cluster.Topology.net_snapshot cluster;
    buf;
    counters = Array.map (Obs.Metrics.counter_value metrics) counter_names;
    wal_coordinator = wal_lsn cluster.Cluster.Topology.coordinator;
    wal_workers;
    vclock = Sim.Clock.now cluster.Cluster.Topology.clock;
    gc = Gc.quick_stat ();
  }

(* Running totals of counter deltas, keyed by metric-ish names. *)
type totals = (string, float) Hashtbl.t

let add (t : totals) k v =
  Hashtbl.replace t k (v +. Option.value ~default:0.0 (Hashtbl.find_opt t k))

let get (t : totals) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)

let accumulate (t : totals) ~(before : snap) ~(after : snap) =
  List.iter2
    (fun a b ->
      List.iter
        (fun (k, v) -> add t ("meter." ^ k) (float_of_int v))
        (Engine.Meter.to_assoc (Engine.Meter.diff ~after:a ~before:b)))
    after.meters before.meters;
  let net = Cluster.Topology.net_diff ~after:after.net ~before:before.net in
  add t "net.round_trips" (float_of_int net.Cluster.Topology.round_trips);
  add t "net.cross_round_trips" (float_of_int net.Cluster.Topology.cross_round_trips);
  add t "net.rows_shipped" (float_of_int net.Cluster.Topology.rows_shipped);
  add t "net.connections_opened" (float_of_int net.Cluster.Topology.connections_opened);
  List.iter2
    (fun (a : Storage.Buffer_pool.stats) (b : Storage.Buffer_pool.stats) ->
      add t "buf.hits" (float_of_int (a.hits - b.hits));
      add t "buf.misses" (float_of_int (a.misses - b.misses));
      add t "buf.evictions" (float_of_int (a.evictions - b.evictions)))
    after.buf before.buf;
  Array.iteri
    (fun i name -> add t name (float_of_int (after.counters.(i) - before.counters.(i))))
    counter_names;
  add t "wal.coordinator" (float_of_int (after.wal_coordinator - before.wal_coordinator));
  add t "wal.workers" (float_of_int (after.wal_workers - before.wal_workers));
  add t "vclock_s" (after.vclock -. before.vclock);
  add t "gc.promoted_words" (after.gc.Gc.promoted_words -. before.gc.Gc.promoted_words);
  add t "gc.major_collections"
    (float_of_int (after.gc.Gc.major_collections - before.gc.Gc.major_collections))

(* --- storage readout --- *)

type node_storage = { node : string; versions : int; dead : int; wal : int }

let storage (db : Workloads.Db.t) =
  List.map
    (fun (n : Cluster.Topology.node) ->
      let cat = Engine.Instance.catalog n.Cluster.Topology.instance in
      let versions, dead =
        List.fold_left
          (fun (v, d) name ->
            match (Engine.Catalog.find_table cat name).Engine.Catalog.store with
            | Engine.Catalog.Heap_store h ->
              (v + Storage.Heap.live_estimate h, d + Storage.Heap.dead_estimate h)
            | Engine.Catalog.Columnar_store _ -> (v, d))
          (0, 0) (Engine.Catalog.table_names cat)
      in
      { node = n.Cluster.Topology.node_name; versions; dead; wal = Txn.Wal.size (wal n) })
    (nodes db)

(* --- replays of sampled ops --- *)

(* Per worker: a bench-owned coordinator connection and a direct session,
   opened before anything is counted. *)
type env = {
  meta : Citus.Metadata.t;
  catalog : Engine.Catalog.t;
  local_name : string;
  workers : (string * (Cluster.Connection.t * Engine.Instance.session)) list;
}

let env (w : Wl.t) =
  let cluster = w.Wl.db.Workloads.Db.cluster in
  let coord = cluster.Cluster.Topology.coordinator in
  {
    meta = w.Wl.api.Citus.Api.metadata;
    catalog = Engine.Instance.catalog coord.Cluster.Topology.instance;
    local_name = coord.Cluster.Topology.node_name;
    workers =
      List.map
        (fun (n : Cluster.Topology.node) ->
          ( n.Cluster.Topology.node_name,
            ( Cluster.Connection.open_ ~origin:coord.Cluster.Topology.node_name cluster n,
              Engine.Instance.connect n.Cluster.Topology.instance ) ))
        cluster.Cluster.Topology.workers;
  }

(* Timing sums (us) and counts over replayed ops. [counted] is false once
   the op lies past the counted prefix: its timings still add up, its
   counts do not. *)
type replay_totals = {
  mutable ops : int;
  mutable lex_us : float;
  mutable parse_us : float;
  mutable plan_us : float;
  mutable deparse_us : float;
  mutable read_tasks : int;
  mutable wire_us : float;
  mutable engine_us : float;
  mutable self_ops : int;
  mutable self_us : float;
  mutable copy_batches : int;
  mutable copy_rows : int;
  mutable copy_us : float;
  mutable counted_ops : int;
  mutable tokens : int;
  mutable wire_bytes : int;
}

let replay_totals () =
  {
    ops = 0; lex_us = 0.0; parse_us = 0.0; plan_us = 0.0; deparse_us = 0.0;
    read_tasks = 0; wire_us = 0.0; engine_us = 0.0; self_ops = 0; self_us = 0.0;
    copy_batches = 0; copy_rows = 0; copy_us = 0.0; counted_ops = 0; tokens = 0;
    wire_bytes = 0;
  }

(* Fastest of three runs: the parse time below is a difference of two
   timings, which single runs make noisy. *)
let best_of_3 f =
  let x, a = Wl.timed f in
  let _, b = Wl.timed f in
  let _, c = Wl.timed f in
  (x, Float.min a (Float.min b c))

(* Lex and parse [sql]; returns the statement, token count and the two
   times (parse time excludes the lexing inside it). *)
let front sql =
  let toks, lex_us = best_of_3 (fun () -> Sqlfront.Lexer.tokenize sql) in
  let stmt, full_us = best_of_3 (fun () -> Sqlfront.Parser.parse_statement sql) in
  (stmt, List.length toks, lex_us, full_us -. lex_us)

let replay env (r : replay_totals) ~counted ~op_us = function
  | Wl.Copy { rows; bytes } ->
    r.ops <- r.ops + 1;
    r.copy_batches <- r.copy_batches + 1;
    r.copy_rows <- r.copy_rows + rows;
    r.copy_us <- r.copy_us +. op_us;
    if counted then begin
      r.counted_ops <- r.counted_ops + 1;
      r.wire_bytes <- r.wire_bytes + bytes
    end
  | (Wl.Text sql | Wl.Prepared sql) as op ->
    let on_coordinator = match op with Wl.Text _ -> true | _ -> false in
    r.ops <- r.ops + 1;
    if counted then r.counted_ops <- r.counted_ops + 1;
    let stmt, ntok, lex_us, parse_us = front sql in
    let coord_us = ref 0.0 in
    if on_coordinator then begin
      r.lex_us <- r.lex_us +. lex_us;
      r.parse_us <- r.parse_us +. parse_us;
      coord_us := lex_us +. parse_us;
      if counted then r.tokens <- r.tokens + ntok
    end;
    (* the fragments the workers receive: a delegated CALL travels as
       itself; anything else as the planner's shard tasks *)
    let tasks =
      match stmt with
      | Sqlfront.Ast.Call _ -> [ (None, stmt) ]
      | _ -> (
        match
          Wl.timed (fun () ->
              Citus.Planner.plan env.meta ~catalog:env.catalog ~local_name:env.local_name stmt)
        with
        | (plan, _tier), plan_us ->
          (* for a prepared EXECUTE this is the plan the cache saves,
             timed but not on the op's path *)
          r.plan_us <- r.plan_us +. plan_us;
          if on_coordinator then coord_us := !coord_us +. plan_us;
          List.map
            (fun (t : Citus.Plan.task) -> (Some t.Citus.Plan.task_node, t.Citus.Plan.task_stmt))
            (Citus.Plan.tasks_of plan)
        | exception Citus.Planner.Unsupported _ -> [])
    in
    let is_read = match stmt with Sqlfront.Ast.Select_stmt _ -> true | _ -> false in
    let conn_us = ref 0.0 and all_replayed = ref is_read in
    List.iter
      (fun (node, task_stmt) ->
        let text, deparse_us = Wl.timed (fun () -> Sqlfront.Deparse.statement task_stmt) in
        r.deparse_us <- r.deparse_us +. deparse_us;
        let _, wtok, wlex_us, wparse_us = front text in
        r.lex_us <- r.lex_us +. wlex_us;
        r.parse_us <- r.parse_us +. wparse_us;
        if counted then begin
          r.tokens <- r.tokens + wtok;
          r.wire_bytes <- r.wire_bytes + String.length text
        end;
        match Option.bind node (fun n -> List.assoc_opt n env.workers) with
        | Some (conn, direct) when is_read ->
          let _, c_us = Wl.timed (fun () -> Cluster.Connection.exec_ast conn task_stmt) in
          let _, d_us = Wl.timed (fun () -> Engine.Instance.exec direct text) in
          r.read_tasks <- r.read_tasks + 1;
          r.wire_us <- r.wire_us +. (c_us -. d_us);
          r.engine_us <- r.engine_us +. d_us;
          conn_us := !conn_us +. c_us
        | _ -> all_replayed := false)
      tasks;
    if !all_replayed && tasks <> [] then begin
      r.self_ops <- r.self_ops + 1;
      r.self_us <- r.self_us +. (op_us -. !coord_us -. !conn_us)
    end
