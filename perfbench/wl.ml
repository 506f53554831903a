(* What a workload hands the runner, plus the wall-clock helpers every
   module here shares. All times come from the monotonic clock. *)

exception Wrong_result of string

(* What the traced run replays for a sampled op. *)
type replay =
  | Text of string
      (** plain SQL: the coordinator lexes, parses and plans it *)
  | Prepared of string
      (** an EXECUTE served by the plan cache; the string is the
          statement's literal form, planned only to recover the worker
          fragment *)
  | Copy of { rows : int; bytes : int }  (** one COPY batch *)

type op = {
  kind : string;  (** latency class, e.g. "read", "new_order" *)
  run : unit -> unit;
      (** performs the op; raises [Wrong_result] on a bad answer *)
  replay : unit -> replay;
}

type t = {
  db : Workloads.Db.t;
  api : Citus.Api.t;
  next_op : unit -> op;
  checks : Workloads.Db.t -> (string * bool) list;
      (** end-of-run output checks through the given handle; run before
          and after the workers restart from their WAL *)
}

type spec = {
  name : string;
  primary : string;  (** op kind reported as primary_p50/p99_us *)
  secondary : string;  (** op kind reported as secondary_p50/p99_us *)
  warmup_ops : int;
  count_ops : int;
      (** each round's window covers at least this many ops; the
          deterministic figures (allocation, per-layer counts) are taken
          over exactly the first round's first [count_ops] ops *)
  ops_per_s : int;
      (** the rounds' windows together run [ops_per_s * seconds] ops
          (each at least [count_ops]): a fixed count per seed, so every
          round walks the same storage states whatever the host's speed;
          sized to take about three quarters of [seconds] on the
          reference host *)
  maintenance_every : int;  (** ops between two [Citus.Api.maintenance] ticks *)
  trace_stride : int;  (** the traced run replays every n-th op *)
  setup : seed:int -> t;
}

let now_ns () = Monotonic_clock.now ()

let since_us t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-3

let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* [timed f] is [f ()] and its wall time in microseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_us t0)

let citus_api (db : Workloads.Db.t) =
  match db.Workloads.Db.citus with
  | Some api -> api
  | None -> invalid_arg "perfbench needs a Citus cluster"

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_result s)) fmt

(* Growable sample buffer with nearest-rank percentiles. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let count s = s.n

  let percentile s p =
    let n = s.n in
    if n = 0 then nan
    else begin
      let sorted = Array.sub s.a 0 n in
      Array.sort compare sorted;
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))
    end
end

let median xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Samples.percentile s 0.5
