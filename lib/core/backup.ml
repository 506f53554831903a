let create_restore_point (t : State.t) name =
  (* block in-flight 2PC: an Access_exclusive lock on the commit-records
     table conflicts with the pre-commit inserts, so no distributed
     transaction can slip its commit record in while the points are
     written (§3.9) *)
  let local = t.State.local.Cluster.Topology.instance in
  let mgr = Engine.Instance.txn_manager local in
  let lock_xid = Txn.Manager.begin_txn mgr in
  (match
     Txn.Lock.acquire (Txn.Manager.locks mgr) ~owner:lock_xid
       (Txn.Lock.Table Twopc.commit_records_table)
       Txn.Lock.Access_exclusive
   with
   | Txn.Lock.Granted -> ()
   | Txn.Lock.Blocked _ ->
     Txn.Manager.abort mgr lock_xid;
     invalid_arg "commit records table is busy; retry the restore point");
  Fun.protect
    ~finally:(fun () ->
      if Txn.Manager.is_active mgr lock_xid then Txn.Manager.commit mgr lock_xid)
    (fun () ->
      List.iter
        (fun (node : Cluster.Topology.node) ->
          let name_n = node.Cluster.Topology.node_name in
          if not (State.reachable t name_n) then
            raise
              (Cluster.Connection.Node_unavailable
                 {
                   node = name_n;
                   reason =
                     Printf.sprintf "cannot create restore point %s" name;
                 });
          (* writing the record on a remote node costs a round trip *)
          if not (String.equal name_n t.State.local.Cluster.Topology.node_name)
          then begin
            t.State.cluster.Cluster.Topology.net.Cluster.Topology.round_trips <-
              t.State.cluster.Cluster.Topology.net.Cluster.Topology.round_trips + 1;
            t.State.cluster.Cluster.Topology.net.Cluster.Topology.cross_round_trips <-
              t.State.cluster.Cluster.Topology.net.Cluster.Topology
                .cross_round_trips + 1
          end;
          Engine.Instance.create_restore_point node.Cluster.Topology.instance
            name)
        (Cluster.Topology.all_nodes t.State.cluster))

let restore_point_positions (t : State.t) name =
  List.map
    (fun (node : Cluster.Topology.node) ->
      let wal =
        Txn.Manager.wal (Engine.Instance.txn_manager node.Cluster.Topology.instance)
      in
      (node.Cluster.Topology.node_name, Txn.Wal.find_restore_point wal name))
    (Cluster.Topology.all_nodes t.State.cluster)

let restore_point_is_consistent (t : State.t) name =
  List.for_all (fun (_, pos) -> pos <> None) (restore_point_positions t name)
