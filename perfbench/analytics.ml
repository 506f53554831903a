(* Real-time analytics in the shape of paper section 4.2: COPY fresh
   GitHub events into a GIN-indexed table while dashboards read a
   32-shard rollup built once at set-up. *)

let base_events = 3_000

let batch_events = 8

(* rollup reads after each COPY batch; with the COPY that makes a cycle
   of [reads_per_batch + 1] ops *)
let reads_per_batch = 3

let gh = { Workloads.Gharchive.default_config with events = base_events }

let rollup_sql = "SELECT day, sum(n_commits) FROM commits GROUP BY day ORDER BY day"

let setup ~seed =
  let db = Workloads.Db.citus ~workers:4 () in
  Workloads.Gharchive.setup_schema db;
  let loaded = Workloads.Gharchive.load db ~seed gh in
  if loaded <> base_events then Wl.wrong "set-up loaded %d of %d events" loaded base_events;
  Workloads.Gharchive.create_rollup_table db;
  ignore (Workloads.Db.exec db Workloads.Gharchive.transformation_query);
  let api = Wl.citus_api db in
  let session = db.Workloads.Db.session in
  let answer = (Engine.Instance.exec session rollup_sql).Engine.Instance.rows in
  let commits =
    List.fold_left
      (fun n row -> match row.(1) with Datum.Int c -> n + c | _ -> n)
      0 answer
  in
  if List.length answer <> gh.Workloads.Gharchive.days
     || commits <> base_events * gh.Workloads.Gharchive.commits_per_event
  then
    Wl.wrong "rollup has %d days and %d commits, expected %d and %d" (List.length answer)
      commits gh.Workloads.Gharchive.days
      (base_events * gh.Workloads.Gharchive.commits_per_event);
  let same_rows a b = List.equal (Array.for_all2 Datum.equal) a b in
  let read_on s () =
    if not (same_rows (Engine.Instance.exec s rollup_sql).Engine.Instance.rows answer) then
      Wl.wrong "rollup read differs from the set-up answer"
  in
  let read = read_on session in
  let ingested = ref 0 and position = ref 0 and batch = ref 0 in
  let next_op () =
    let p = !position in
    position := (p + 1) mod (reads_per_batch + 1);
    if p = 0 then begin
      incr batch;
      let lines =
        Workloads.Gharchive.generate_lines
          ~seed:((seed * 1_000_003) + !batch)
          { gh with events = batch_events }
      in
      let bytes = List.fold_left (fun n l -> n + String.length l + 1) 0 lines in
      {
        Wl.kind = "copy";
        run =
          (fun () ->
            let n =
              Engine.Instance.copy_in session ~table:"github_events" ~columns:None lines
            in
            if n <> batch_events then Wl.wrong "COPY stored %d of %d rows" n batch_events;
            ingested := !ingested + n);
        replay = (fun () -> Wl.Copy { rows = batch_events; bytes });
      }
    end
    else { Wl.kind = "read"; run = read; replay = (fun () -> Wl.Text rollup_sql) }
  in
  let checks (h : Workloads.Db.t) =
    let expected = base_events + !ingested in
    [
      ( "rollup read equals the set-up answer",
        match read_on h.Workloads.Db.session () with () -> true | exception _ -> false );
      ( Printf.sprintf "count(*) of github_events = rows ingested (%d)" expected,
        Workloads.Db.count h "github_events" = expected );
    ]
  in
  { Wl.db; api; next_op; checks }

let spec =
  {
    Wl.name = "analytics";
    primary = "read";
    secondary = "copy";
    warmup_ops = 40;
    count_ops = 400;
    (* a multiple of the 4-op cycle, as are its halves *)
    ops_per_s = 280;
    maintenance_every = 40;
    (* coprime with the 4-op cycle, so samples cover both op kinds *)
    trace_stride = 5;
    setup;
  }
