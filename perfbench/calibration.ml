(* Host-speed calibration.

   On a shared host the speed of the same work drifts by 15-25% over
   tens of seconds (measured on a shared 2-vCPU x86 host: a fixed Fig 9
   regeneration interleaved with fixed loops for 100 s).  Each timed
   call is therefore followed by this fixed loop — independent of the
   repository's code, so no change to the program moves it — and the
   call's time is scaled by [reference_ms / loop time]: the time the
   call would take on a host where the loop takes exactly
   [reference_ms].  The loop mixes the simulator's kinds of host work:
   short-lived allocation, effect-handler fiber switches and hash-table
   updates.  It allocates nothing long-lived, so its cost does not
   depend on the size of the process's major heap, which the workloads
   set.  On that host the medians of the scaled times over 12.5 s
   windows varied by about 2%, the raw ones by 15%.  The raw times are
   printed next to the scaled ones. *)

let reference_ms = 10.0

let allocation () =
  let s = ref 0.0 in
  for i = 1 to 1_200_000 do
    let t = Sys.opaque_identity (i, float_of_int i) in
    s := !s +. snd t
  done;
  int_of_float !s

type _ Effect.t += Yield : unit Effect.t

(* 64 fibers yielding round-robin, 400 times each. *)
let fibers () =
  let ready = Queue.create () in
  let switches = ref 0 in
  let handler =
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Queue.push (fun () -> Effect.Deep.continue k ()) ready)
          | _ -> None);
    }
  in
  for _ = 1 to 64 do
    Queue.push
      (fun () ->
        Effect.Deep.match_with
          (fun () ->
            for _ = 1 to 400 do
              incr switches;
              Effect.perform Yield
            done)
          () handler)
      ready
  done;
  while not (Queue.is_empty ready) do
    (Queue.pop ready) ()
  done;
  !switches

let table () =
  let h = Hashtbl.create 1024 in
  for i = 1 to 100_000 do
    Hashtbl.replace h (i land 4095) (float_of_int i)
  done;
  Hashtbl.length h

(* Host milliseconds of one loop. *)
let ms () =
  let t0 = Layers.now_ns () in
  ignore (Sys.opaque_identity (allocation () + fibers () + table ()));
  (Layers.now_ns () -. t0) /. 1e6
