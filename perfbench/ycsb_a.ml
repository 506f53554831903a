(* YCSB workload A through prepared statements: the single-fragment
   path, and the one workload larger than the buffer pools. *)

let cfg = { Workloads.Ycsb.rows = 24_000; fields = 10; field_length = 20 }

(* usertable is rows / 64 = 375 pages, spread over 4 workers; 25 pages
   per node gives the 5-node cluster 125 pages, a third of the table. *)
let buffer_pages = 25

let read_sql = "SELECT * FROM usertable WHERE ycsb_key = $1"

let update_name f = Printf.sprintf "ycsb_update_%d" f

let payload rng =
  String.init cfg.field_length (fun _ ->
      Char.chr (Char.code 'a' + Random.State.int rng 26))

let setup ~seed =
  let db = Workloads.Db.citus ~buffer_pages ~workers:4 () in
  Workloads.Ycsb.setup db cfg;
  let api = Wl.citus_api db in
  let session = db.Workloads.Db.session in
  Citus.Session.prepare session ~name:"ycsb_read" read_sql;
  for f = 0 to cfg.fields - 1 do
    Citus.Session.prepare session ~name:(update_name f)
      (Printf.sprintf "UPDATE usertable SET field%d = $2 WHERE ycsb_key = $1" f)
  done;
  (* the client-side model: every row as loaded, then the last value
     acknowledged for each (key, field) *)
  let model = Array.make (cfg.rows + 1) [||] in
  List.iter
    (fun row ->
      match row.(0) with
      | Datum.Int k when k >= 1 && k <= cfg.rows ->
        model.(k) <- Array.sub row 1 cfg.fields
      | d -> Wl.wrong "unexpected usertable key %s" (Datum.to_display d))
    (Engine.Instance.exec session "SELECT * FROM usertable").Engine.Instance.rows;
  Array.iteri
    (fun k r -> if k > 0 && r = [||] then Wl.wrong "key %d missing after load" k)
    model;
  let check_read key (r : Engine.Instance.result) =
    match r.Engine.Instance.rows with
    | [ row ]
      when Array.length row = cfg.fields + 1
           && Datum.equal row.(0) (Datum.Int key)
           && Array.for_all2 Datum.equal (Array.sub row 1 cfg.fields) model.(key)
      -> ()
    | rows -> Wl.wrong "read of key %d returned %d rows, not the model's row" key (List.length rows)
  in
  let read_on session key =
    check_read key (Citus.Session.execute session "ycsb_read" [ Datum.Int key ])
  in
  let read = read_on session in
  let rng = Random.State.make [| seed |] in
  let next_op () =
    match Workloads.Ycsb.next_op cfg rng with
    | Workloads.Ycsb.Read, key ->
      {
        Wl.kind = "read";
        run = (fun () -> read key);
        replay =
          (fun () ->
            Wl.Prepared (Printf.sprintf "SELECT * FROM usertable WHERE ycsb_key = %d" key));
      }
    | Workloads.Ycsb.Update, key ->
      let f = Random.State.int rng cfg.fields in
      let v = payload rng in
      {
        Wl.kind = "update";
        run =
          (fun () ->
            let r =
              Citus.Session.execute session (update_name f) [ Datum.Int key; Datum.Text v ]
            in
            if r.Engine.Instance.affected <> 1 then
              Wl.wrong "update of key %d affected %d rows" key r.Engine.Instance.affected;
            model.(key).(f) <- Datum.Text v);
        replay =
          (fun () ->
            Wl.Prepared
              (Printf.sprintf "UPDATE usertable SET field%d = '%s' WHERE ycsb_key = %d" f v key));
      }
  in
  let checks (h : Workloads.Db.t) =
    let s = h.Workloads.Db.session in
    if not (List.mem "ycsb_read" (Citus.Session.prepared_names s)) then
      Citus.Session.prepare s ~name:"ycsb_read" read_sql;
    let bad = ref 0 and first = ref "" in
    for key = 1 to cfg.rows do
      match read_on s key with
      | () -> ()
      | exception e ->
        if !bad = 0 then first := Printf.sprintf "; key %d: %s" key (Printexc.to_string e);
        incr bad
    done;
    [
      ( Printf.sprintf "every key reads its last acknowledged value (%d wrong%s)" !bad !first,
        !bad = 0 );
    ]
  in
  { Wl.db; api; next_op; checks }

let spec =
  {
    Wl.name = "ycsb_a";
    primary = "read";
    secondary = "update";
    warmup_ops = 5_000;
    count_ops = 20_000;
    ops_per_s = 12_000;
    maintenance_every = 1_000;
    trace_stride = 8;
    setup;
  }
