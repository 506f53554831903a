(* The Workloads.Tpcc mix in the fig6 shape, with procedure delegation:
   engine- and transaction-heavy, fits in cache, no plan cache. *)

let cfg =
  {
    Workloads.Tpcc.warehouses = 64;
    districts_per_warehouse = 4;
    customers_per_district = 40;
    items = 600;
    remote_txn_fraction = 0.07;
  }

(* [Workloads.Tpcc.run_one] builds its statement from the random stream
   and runs it in one call. The traced run needs that statement, so this
   repeats its draws on a copy of the stream, and the next op checks that
   both consumed the same draws. *)
let statement_of (c : Workloads.Tpcc.config) rng =
  let w_id = 1 + Random.State.int rng c.warehouses in
  let d_id = 1 + Random.State.int rng c.districts_per_warehouse in
  let c_id = 1 + Random.State.int rng c.customers_per_district in
  let remote = c.warehouses > 1 && Random.State.float rng 1.0 < c.remote_txn_fraction in
  let other_w =
    if remote then 1 + ((w_id + Random.State.int rng (c.warehouses - 1)) mod c.warehouses)
    else w_id
  in
  let pick = Random.State.float rng 1.0 in
  if pick < 0.45 then
    let seed = (Random.State.int rng 1_000_000 * 2) + if remote then 1 else 0 in
    ("new_order", Printf.sprintf "CALL tpcc_new_order(%d, %d, %d, %d)" w_id d_id c_id seed)
  else if pick < 0.88 then
    let amount = 1.0 +. Random.State.float rng 100.0 in
    ( "payment",
      Printf.sprintf "CALL tpcc_payment(%d, %d, %d, %d, %d, %f)" w_id d_id other_w d_id c_id
        amount )
  else if pick < 0.92 then ("delivery", Printf.sprintf "CALL tpcc_delivery(%d)" w_id)
  else if pick < 0.96 then
    ( "order_status",
      Printf.sprintf
        "SELECT count(*) FROM orders WHERE o_w_id = %d AND o_d_id = %d AND o_c_id = %d" w_id
        d_id c_id )
  else
    ( "stock_level",
      Printf.sprintf "SELECT count(*) FROM stock WHERE s_w_id = %d AND s_quantity < 25" w_id )

let kind_name = function
  | Workloads.Tpcc.New_order -> "new_order"
  | Workloads.Tpcc.Payment -> "payment"
  | Workloads.Tpcc.Delivery -> "delivery"
  | Workloads.Tpcc.Order_status -> "order_status"
  | Workloads.Tpcc.Stock_level -> "stock_level"

let float_of_rows (r : Engine.Instance.result) =
  match r.Engine.Instance.rows with
  | [ [| Datum.Float f |] ] -> f
  | [ [| Datum.Int i |] ] -> float_of_int i
  | [ [| Datum.Null |] ] -> 0.0
  | _ -> nan

(* Payment moves an amount from a customer's balance into w_ytd and
   d_ytd; delivery credits the customer with the delivered order's
   total. From zero balances that gives
     sum(c_balance) = (total of delivered orders) - sum(w_ytd). *)
let balance_identity db =
  let exec sql = Workloads.Db.exec db sql in
  let w_ytd = float_of_rows (exec "SELECT sum(w_ytd) FROM warehouse") in
  let d_ytd = float_of_rows (exec "SELECT sum(d_ytd) FROM district") in
  let undelivered = Hashtbl.create 1024 in
  List.iter
    (fun row -> Hashtbl.replace undelivered (row.(0), row.(1), row.(2)) ())
    (exec "SELECT no_w_id, no_d_id, no_o_id FROM new_order").Engine.Instance.rows;
  let delivered =
    List.fold_left
      (fun acc row ->
        match row.(3) with
        | Datum.Float f when not (Hashtbl.mem undelivered (row.(0), row.(1), row.(2))) ->
          acc +. f
        | _ -> acc)
      0.0
      (exec
         "SELECT ol_w_id, ol_d_id, ol_o_id, sum(ol_amount) FROM order_line GROUP BY \
          ol_w_id, ol_d_id, ol_o_id")
        .Engine.Instance.rows
  in
  let balance = Workloads.Tpcc.total_customer_balance db in
  (* amounts travel as %f text: allow their rounding, far below any
     single payment (>= 1.0) *)
  let close a b = Float.abs (a -. b) <= 1e-2 in
  close w_ytd d_ytd && close balance (delivered -. w_ytd)

let setup ~seed =
  let db = Workloads.Db.citus ~workers:4 () in
  Workloads.Tpcc.setup db cfg;
  Workloads.Tpcc.enable_delegation db;
  let api = Wl.citus_api db in
  let session = db.Workloads.Db.session in
  let rng = Random.State.make [| seed |] in
  let new_orders = ref 0 in
  (* the previous op's mirror, compared with the stream outside the
     timed op *)
  let last_mirror = ref None and diverged = ref 0 in
  let verify_mirror () =
    match !last_mirror with
    | Some m when Random.State.bits (Random.State.copy rng) <> Random.State.bits m ->
      incr diverged
    | _ -> ()
  in
  let next_op () =
    verify_mirror ();
    let mirror = Random.State.copy rng in
    let kind, sql = statement_of cfg mirror in
    last_mirror := Some mirror;
    {
      Wl.kind;
      run =
        (fun () ->
          let k, _remote = Workloads.Tpcc.run_one db session cfg rng in
          if kind_name k <> kind then
            Wl.wrong "run_one ran %s where its mirror drew %s" (kind_name k) kind;
          if k = Workloads.Tpcc.New_order then incr new_orders);
      replay = (fun () -> Wl.Text sql);
    }
  in
  let checks h =
    verify_mirror ();
    last_mirror := None;
    [
      ( Printf.sprintf "statement mirror matched run_one's draws (%d diverged)" !diverged,
        !diverged = 0 );
      ( "orders_match_district_counters",
        Workloads.Tpcc.orders_match_district_counters h cfg );
      ( Printf.sprintf "orders = acknowledged new_order calls (%d)" !new_orders,
        Workloads.Db.count h "orders" = !new_orders );
      ("total_customer_balance = delivered totals - sum(w_ytd)", balance_identity h);
    ]
  in
  { Wl.db; api; next_op; checks }

let spec =
  {
    Wl.name = "tpcc";
    primary = "new_order";
    secondary = "payment";
    warmup_ops = 300;
    count_ops = 2_000;
    ops_per_s = 504;
    maintenance_every = 100;
    trace_stride = 4;
    setup;
  }
