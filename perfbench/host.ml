(* The host's speed, measured while the benchmark runs.

   A shared VM runs the same code up to 2x slower from one minute to the
   next, and ten runs can differ by that much. So a fixed kernel is timed
   again and again through a run, and the end-to-end timings are scaled
   to the speed of a reference host where the kernel takes
   [reference_us]. The kernel allocates and hashes, as the program does,
   because a pure arithmetic loop misses most of the swing.

   The kernel runs in a separate process with its own heap, and only
   while the benchmark waits for it. So nothing the program does,
   including how big its heap grows, can change the kernel's time: the
   scaling cannot hide a change in the program. *)

(* the kernel's time on the reference host (2-vCPU VM, Xeon 2.0 GHz) *)
let reference_us = 4000.0

let kernel () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 3999 do
    Hashtbl.replace h (string_of_int (i * 7919)) (float_of_int i)
  done;
  let acc = ref 0.0 in
  for i = 0 to 3999 do
    acc := !acc +. Hashtbl.find h (string_of_int (i * 7919))
  done;
  let a = Array.init 4000 (fun i -> float_of_int (i * 7919 mod 4001)) in
  Array.sort compare a;
  let l = List.init 4000 (fun i -> (i, string_of_int i)) in
  ignore (Sys.opaque_identity (!acc, a, List.rev l))

let probe_flag = "--host-probe"

(* The probe process: one kernel run per byte on stdin, its time in
   microseconds on stdout; exits at end of input. *)
let serve () =
  try
    while true do
      ignore (input_char stdin);
      let t0 = Wl.now_ns () in
      kernel ();
      Printf.printf "%.3f\n%!" (Wl.since_us t0)
    done
  with End_of_file -> ()

type t = { ic : in_channel; oc : out_channel }

let start () =
  let ic, oc = Unix.open_process_args Sys.executable_name [| Sys.executable_name; probe_flag |] in
  { ic; oc }

(* Closes the probe's input, so it exits, and waits for it. *)
let stop t = ignore (Unix.close_process (t.ic, t.oc))

(* Sums of kernel times over one phase of a run. *)
type speed = { mutable n : int; mutable us : float }

let speed () = { n = 0; us = 0.0 }

(* Runs the kernel once in the probe process and adds its time to [s];
   returns the wall seconds the call took, probe round trip included. *)
let sample t s =
  let t0 = Wl.now_ns () in
  output_char t.oc 'x';
  flush t.oc;
  let us = float_of_string (input_line t.ic) in
  s.n <- s.n + 1;
  s.us <- s.us +. us;
  Wl.since_s t0

(* How much slower than the reference host this phase ran: divide a
   time by it, multiply a rate by it. *)
let slowdown s = if s.n = 0 then nan else s.us /. float_of_int s.n /. reference_us
