(** L10 transitive-blocking: the fiber-context discipline for suspending
    code, direct and derived.

    The scheduler's suspending primitives ([Sim.Sched.await] /
    [await_result] / [await_any] / [join_all] / [sleep] / [sleep_until] /
    [wait] / [timed_wait] / [yield]) and the deadline-aware
    [Cluster.Connection.await] must be called from code that is lexically
    inside a scheduler scope — a [State.with_sched] / [Sim.Sched.run]
    body, a [Sim.Sched.spawn] thunk, or a function that receives the
    scheduler as a [sched] parameter. The fact propagates through the
    call graph ({!Suspend.facts}): a function that transitively reaches a
    primitive is itself suspending, and every reference to it — call or
    higher-order use — must satisfy the same discipline.

    Each site is reported once: as a direct primitive call or as a call
    to a derived suspending function, never both. The escape hatch is
    [[\@lint.blocking]] on an enclosing expression, marking a deliberate
    dual-mode boundary. [[\@\@lint.blocking]] on a binding excuses its
    calls to derived suspending functions, but not a direct primitive
    call in its body. *)

let id = "L10"
let name = "transitive-blocking"

let doc =
  "Sim.Sched suspending calls, Connection.await and calls to functions \
   that transitively reach them must run inside a with_sched / Sched.run \
   / Sched.spawn scope or a function taking a [sched] parameter (escape \
   hatch: [@lint.blocking])"

let explain =
  "Outside a scheduler scope the Sched primitives perform effects no \
   handler catches — a crash at runtime — and a bare Connection.await \
   silently degrades to a serializing clock advance: it waits out the \
   very stall the deadline/hedging machinery exists to escape, invisible \
   to cancellation. A function that calls Sched.await three frames down \
   suspends its caller's fiber exactly as hard as a direct await, so a \
   backward fixpoint over the whole-program call graph marks every \
   function that reaches a suspending primitive (await / await_result / \
   await_any / join_all / sleep / sleep_until / wait / timed_wait / \
   yield / Connection.await) without an intervening handler (with_sched \
   / Sched.run) or dual-mode boundary. Every direct primitive call and \
   every reference to a marked function — including passing it as a \
   value — must sit inside a with_sched / Sched.run body, a Sched.spawn \
   thunk, or a function that receives the scheduler as a [sched] \
   parameter. Escape hatch: [@lint.blocking] on an enclosing expression, \
   reserved for boundary primitives that support both modes by design \
   (e.g. Exec.on_conn_exn, which also serves setup and maintenance code \
   that runs without a scheduler); on a binding it excuses the binding's \
   calls to derived suspending functions, never a direct primitive call. \
   Functions taking ?sched are treated as dual-mode by construction."

(* per-file/per-tree hooks unused: this is a whole-program rule *)
let applies _ = false
let check ~path:_ _ = []
let check_tree _ = []

let in_scope_file path =
  Rule.starts_with "lib/" path && not (Rule.starts_with "lib/sim/" path)

let direct_message path =
  Printf.sprintf
    "%s suspends a fiber but no scheduler scope is in sight (no enclosing \
     with_sched / Sched.run / Sched.spawn or [sched] parameter); outside a \
     scope this crashes or silently serializes — pass the scheduler in, or \
     annotate a deliberate dual-mode boundary with [@lint.blocking]"
    path

let derived_message path witness =
  Printf.sprintf
    "%s transitively suspends (%s) but no scheduler scope is in sight here; \
     run it under with_sched / Sched.run / Sched.spawn, take a [sched] \
     parameter, or annotate a deliberate dual-mode boundary with \
     [@lint.blocking]"
    path witness

let check_program (files : (string * Parsetree.structure) list) =
  let g = Callgraph.build files in
  let fact = Suspend.facts g in
  let findings =
    List.concat_map
      (fun (fn : Callgraph.fn) ->
        (* a binding marked [@@lint.blocking] IS the dual-mode boundary:
           its body may reach derived suspending functions *)
        let boundary = List.mem "lint.blocking" fn.Callgraph.f_attrs in
        if not (in_scope_file fn.Callgraph.f_file) then []
        else
          List.filter_map
            (fun (s : Callgraph.site) ->
              let finding ~loc msg =
                Some (Rule.finding ~id ~file:fn.Callgraph.f_file ~loc msg)
              in
              let path = String.concat "." s.Callgraph.s_path in
              if s.Callgraph.s_in_scope || Suspend.site_blocking_ok s then None
              else if Suspend.path_is_prim s.Callgraph.s_path then
                (* a [?sched] parameter is a scope for the primitives it
                   guards, though it keeps the function dual-mode *)
                match s.Callgraph.s_kind with
                | Callgraph.Call { app_loc; _ } when not fn.Callgraph.f_opt_sched
                  ->
                  finding ~loc:app_loc (direct_message path)
                | _ -> None
              else if boundary || Suspend.site_is_prim g s then None
              else
                match Callgraph.resolved g s with
                | Some tgt when fact tgt ->
                  finding ~loc:s.Callgraph.s_loc
                    (derived_message path (Suspend.witness g fact tgt))
                | _ -> None)
            fn.Callgraph.f_sites)
      g.Callgraph.fns
  in
  List.sort
    (fun (a : Rule.finding) b ->
      compare (a.file, a.line, a.col) (b.file, b.line, b.col))
    findings
