(** L12 deadline-propagation: no unbounded wait on the statement path.

    The statement-execution entry points are
    [Adaptive_executor.execute] and every top-level function of
    [Twopc]. A forward reachability fixpoint over the call graph marks
    everything they can reach; inside the reachable set, every direct
    use of a parking await — [Connection.await], [Sched.await],
    [Sched.await_result] — must pass a [~deadline]/[?deadline]
    argument, or the statement can hang past its [statement_timeout] on
    one stalled node.

    Reachability deliberately ignores the [s_stopped] suspension
    barrier: a fiber spawned by the executor is still {e on the
    statement path} even though its suspension does not propagate to
    the spawner — the client is waiting on its join.

    Escape hatch: [[\@lint.unbounded]] on the await, asserting the wait
    is bounded by other means (e.g. every round trip inside the awaited
    fiber already carries the phase deadline, so the fiber's completion
    is transitively bounded and an extra ?deadline would only leave the
    fiber running unjoined). *)

let id = "L12"
let name = "deadline-propagation"

let doc =
  "Connection.await / Sched.await / Sched.await_result reachable from \
   Adaptive_executor.execute or Twopc.* must receive ?deadline (escape \
   hatch: [@lint.unbounded])"

let explain =
  "statement_timeout is only as good as its weakest await: one \
   deadline-less Connection.await on the statement path turns a gray \
   failure (a stalled-but-alive node) back into an unbounded client \
   hang, which is precisely what PR 6's deadline machinery exists to \
   prevent. L12 computes forward reachability from the statement entry \
   points (Adaptive_executor.execute, Twopc.*) over the whole-program \
   call graph — through spawned fibers too, since the client waits on \
   their join — and requires every reachable parking await \
   (Connection.await / Sched.await / Sched.await_result) to carry \
   ?deadline. Escape hatch: [@lint.unbounded] on the await, for waits \
   bounded by other means — e.g. joining a fiber whose every internal \
   round trip already carries the phase deadline; handing ?deadline to \
   that join would be worse, because Error Timed_out abandons the \
   still-running fiber and its failure re-raises at scheduler exit."

let applies _ = false
let check ~path:_ _ = []
let check_tree _ = []

let is_entry (fn : Callgraph.fn) =
  let { Callgraph.m; v } = fn.Callgraph.f_id in
  (String.equal m "Adaptive_executor" && String.equal v "execute")
  || String.equal m "Twopc"

(* the parking awaits whose bound must be explicit; [await_any] already
   requires explicit deadlines by type, [join_all]/[wait] are covered
   through the fibers they join *)
let is_await comps =
  match List.rev comps with
  | last :: prev :: _ ->
    (String.equal prev "Connection" && String.equal last "await")
    || (String.equal prev "Sched"
        && (String.equal last "await" || String.equal last "await_result"))
  | _ -> false

let escape_hatch = "lint.unbounded"

let in_scope_file path =
  Rule.starts_with "lib/" path && not (Rule.starts_with "lib/sim/" path)

let check_program (files : (string * Parsetree.structure) list) =
  let g = Callgraph.build files in
  let reachable =
    Dataflow.solve g ~dir:Dataflow.Forward ~bottom:false ~equal:Bool.equal
      ~join:( || ) ~init:is_entry
      ~transfer:(fun ~site:_ ~dep:_ fact -> fact)
  in
  let findings =
    List.concat_map
      (fun (fn : Callgraph.fn) ->
        if
          (not (in_scope_file fn.Callgraph.f_file))
          || not (is_entry fn || reachable fn.Callgraph.f_id)
        then []
        else
          List.filter_map
            (fun (s : Callgraph.site) ->
              if
                is_await s.Callgraph.s_path
                && (not (List.mem escape_hatch s.Callgraph.s_attrs))
                &&
                match s.Callgraph.s_kind with
                | Callgraph.Call { labels; _ } ->
                  not (List.mem "deadline" labels)
                | Callgraph.Value -> true
              then
                Some
                  (Rule.finding ~id ~file:fn.Callgraph.f_file
                     ~loc:s.Callgraph.s_loc
                     (Printf.sprintf
                        "%s is reachable from the statement path (via %s) \
                         but receives no ?deadline — a stalled node makes \
                         the statement hang past its statement_timeout; \
                         thread the deadline through, or annotate \
                         [@lint.unbounded] if the wait is bounded by other \
                         means"
                        (String.concat "." s.Callgraph.s_path)
                        (Callgraph.id_str fn.Callgraph.f_id)))
              else None)
            fn.Callgraph.f_sites)
      g.Callgraph.fns
  in
  List.sort
    (fun (a : Rule.finding) b ->
      compare (a.file, a.line, a.col) (b.file, b.line, b.col))
    findings
