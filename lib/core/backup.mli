(** Cluster-consistent restore points (§3.9).

    Backups are per-server WAL archives; what makes them consistent
    cluster-wide is a named restore point written into every node's WAL
    while 2PC commit-record writes are blocked — so no multi-node
    transaction can be "half included". Restoring all servers to the same
    restore point then yields a cluster in which every multi-node
    transaction is either fully committed, fully aborted, or completable
    by 2PC recovery on startup. *)

(** [create_restore_point t name] blocks writes to the commit-records
    table, writes the named restore point into the WAL of every reachable
    node, and releases the block. Raises
    {!Cluster.Connection.Node_unavailable} if a node is unreachable (a
    restore point must cover the whole cluster). *)
val create_restore_point : State.t -> string -> unit

(** The WAL position of a restore point on every node, or [None] for nodes
    that do not have it. *)
val restore_point_positions : State.t -> string -> (string * int option) list

(** A restore point is consistent when every node has it. *)
val restore_point_is_consistent : State.t -> string -> bool
