(* citus_shell: an interactive SQL shell over an in-process Citus cluster.

     dune exec bin/citus_shell.exe            # coordinator + 2 workers
     dune exec bin/citus_shell.exe -- 4       # coordinator + 4 workers

   Meta-commands:
     \shards           shard placements
     \tables           Citus tables
     \explain <query>  distributed plan without executing
     \maintenance      run the maintenance daemon once
     \partition <node> cut the coordinator->node link in the cluster's
                       fault plan (Sim.Fault): statements to the node
                       fail with "node ... unavailable"
     \heal <node>      restore that link
     \prepared         prepared statements in this session
     \q                quit

   Everything else is SQL, including the Citus UDFs and the prepared
   statement lifecycle (served from the distributed plan cache):
     SELECT create_distributed_table('t', 'col');
     SELECT create_reference_table('d');
     SELECT rebalance_table_shards();
     PREPARE get AS SELECT * FROM t WHERE col = $1;
     EXECUTE get(42);

   SQL goes through [Citus.Session] — the typed prepared-statement
   surface — rather than the engine-internal [Instance.exec]. *)

let print_result (r : Engine.Instance.result) =
  match r.Engine.Instance.rows with
  | [] ->
    Printf.printf "%s %d\n" r.Engine.Instance.tag r.Engine.Instance.affected
  | rows ->
    let headers =
      match r.Engine.Instance.columns with
      | [] -> List.init (Array.length (List.hd rows)) (fun i -> Printf.sprintf "col%d" i)
      | cs -> cs
    in
    let cells =
      List.map (fun row -> Array.to_list (Array.map Datum.to_display row)) rows
    in
    let widths =
      List.mapi
        (fun i h ->
          List.fold_left
            (fun w r -> max w (String.length (Option.value ~default:"" (List.nth_opt r i))))
            (String.length h) cells)
        headers
    in
    let pad w s = s ^ String.make (max 0 (w - String.length s)) ' ' in
    let line cells =
      print_endline
        (" " ^ String.concat " | " (List.map2 pad widths cells))
    in
    line headers;
    print_endline
      ("-" ^ String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
    List.iter line cells;
    Printf.printf "(%d rows)\n" (List.length rows)

let () =
  let workers =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2
  in
  (* a fault plan with no faults configured changes nothing until
     \partition cuts a link *)
  let cluster = Cluster.Topology.create ~fault_seed:0 ~workers () in
  let fault = Option.get (Cluster.Topology.fault cluster) in
  let citus = Citus.Api.install cluster in
  let session = Citus.Api.connect citus in
  let st = Citus.Api.coordinator_state citus in
  let local = st.Citus.State.local.Cluster.Topology.node_name in
  Printf.printf
    "citus-ocaml shell — coordinator + %d workers, 32 shards per table\n\
     \\q quits; \\shards, \\tables, \\explain <sql>, \\maintenance, \
     \\partition <node>, \\heal <node>\n\n"
    workers;
  let rec loop () =
    print_string "citus=# ";
    match read_line () with
    | exception End_of_file -> print_newline ()
    | "" -> loop ()
    | {|\q|} -> ()
    | {|\shards|} ->
      List.iter
        (fun (dt : Citus.Metadata.dist_table) ->
          List.iter
            (fun (sh : Citus.Metadata.shard) ->
              Printf.printf "  %-24s [%11ld .. %11ld] on %s\n"
                (Citus.Metadata.shard_name sh)
                sh.Citus.Metadata.min_hash sh.Citus.Metadata.max_hash
                (String.concat ","
                   (Citus.Metadata.placements citus.Citus.Api.metadata
                      sh.Citus.Metadata.shard_id)))
            (Citus.Metadata.shards_of citus.Citus.Api.metadata
               dt.Citus.Metadata.dt_name))
        (Citus.Metadata.all_tables citus.Citus.Api.metadata);
      loop ()
    | {|\tables|} ->
      List.iter
        (fun (dt : Citus.Metadata.dist_table) ->
          Printf.printf "  %-20s %s%s\n" dt.Citus.Metadata.dt_name
            (match dt.Citus.Metadata.kind with
             | Citus.Metadata.Distributed -> "distributed"
             | Citus.Metadata.Reference -> "reference")
            (match dt.Citus.Metadata.dist_column with
             | Some c -> " by " ^ c
             | None -> ""))
        (Citus.Metadata.all_tables citus.Citus.Api.metadata);
      loop ()
    | line when String.length line > 11 && String.sub line 0 11 = {|\partition |} ->
      let node = String.sub line 11 (String.length line - 11) in
      (match Cluster.Topology.find_node cluster node with
       | _ ->
         Sim.Fault.partition_link fault ~from_:local ~to_:node;
         Printf.printf "link %s->%s cut\n" local node
       | exception Invalid_argument m -> Printf.printf "%s\n" m);
      loop ()
    | line when String.length line > 6 && String.sub line 0 6 = {|\heal |} ->
      let node = String.sub line 6 (String.length line - 6) in
      (match Cluster.Topology.find_node cluster node with
       | _ ->
         Sim.Fault.heal_link fault ~from_:local ~to_:node;
         Printf.printf "link %s->%s restored\n" local node
       | exception Invalid_argument m -> Printf.printf "%s\n" m);
      loop ()
    | {|\prepared|} ->
      (match Citus.Session.prepared_names session with
       | [] -> print_endline "  (none)"
       | names -> List.iter (Printf.printf "  %s\n") names);
      loop ()
    | {|\maintenance|} ->
      Citus.Api.maintenance citus;
      print_endline "maintenance daemon ran (recovery, deadlock check, autovacuum)";
      loop ()
    | line when String.length line > 9 && String.sub line 0 9 = {|\explain |} ->
      let sql = String.sub line 9 (String.length line - 9) in
      (try print_string (Citus.Explain.explain st sql)
       with e -> Printf.printf "error: %s\n" (Printexc.to_string e));
      loop ()
    | sql ->
      (try print_result (Citus.Session.exec session sql) with
       | Engine.Instance.Session_error m -> Printf.printf "ERROR: %s\n" m
       | Sqlfront.Parser.Parse_error m -> Printf.printf "syntax error: %s\n" m
       | Engine.Executor.Would_block _ ->
         print_endline "statement would block on a lock; retry after the holder commits"
       | e -> Printf.printf "error: %s\n" (Printexc.to_string e));
      loop ()
  in
  loop ()
