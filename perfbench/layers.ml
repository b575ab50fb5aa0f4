(* Per-layer accounting for the traced run.

   The benchmark times its own calls into the public functions of each
   library and folds the counters those functions return; nothing inside
   the libraries is instrumented.  With [on = false] every probe is a
   plain call, which is what the untraced twin of a traced op runs, so
   the difference between the two is the cost of the probes themselves. *)

type span = { mutable ns : float; mutable calls : int }

type t = {
  on : bool;
  spans : (string, span) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
}

let create ~on = { on; spans = Hashtbl.create 32; counts = Hashtbl.create 64 }
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let add_span t name ns calls =
  match Hashtbl.find_opt t.spans name with
  | Some s ->
      s.ns <- s.ns +. ns;
      s.calls <- s.calls + calls
  | None -> Hashtbl.add t.spans name { ns; calls }

let span t name f =
  if not t.on then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    add_span t name (now_ns () -. t0) 1;
    r
  end

let count t name v =
  if t.on then
    Hashtbl.replace t.counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counts name))

let get_count t name =
  Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)

let total_ns t name =
  match Hashtbl.find_opt t.spans name with Some s -> s.ns | None -> 0.0

let calls t name =
  match Hashtbl.find_opt t.spans name with Some s -> s.calls | None -> 0

(* Mean host milliseconds per call; 0 when the layer was never called. *)
let mean_ms t name =
  match Hashtbl.find_opt t.spans name with
  | Some s when s.calls > 0 -> s.ns /. float_of_int s.calls /. 1e6
  | _ -> 0.0

(* Fold one op's accounting into a run total. *)
let merge_into ~dst src =
  Hashtbl.iter (fun name s -> add_span dst name s.ns s.calls) src.spans;
  Hashtbl.iter (fun name v -> count dst name v) src.counts

(* Counts are exact: every op of a run repeats the same work, so any
   difference between two ops' count tables is drift.  The [launch.*]
   accumulators are host-side (minor-heap words) and exempt. *)
let same_counts a b =
  let sorted t =
    Hashtbl.fold
      (fun k v acc ->
        if String.starts_with ~prefix:"launch." k then acc else (k, v) :: acc)
      t.counts []
    |> List.sort compare
  in
  sorted a = sorted b

(* --- the gpusim and omprt layers, read from a launch's counters ------- *)

module Counters = Gpusim.Counters

(* omprt records its events as counter extras under these keys. *)
let omprt_extras =
  [
    ("omprt.parallel_regions", "parallel.regions");
    ("omprt.simd_state_machine_rounds", "simd.state_machine_rounds");
    ("omprt.simd_generic_regions", "simd.generic_regions");
    ("omprt.simd_spmd_regions", "simd.spmd_regions");
    ("omprt.simd_sequential", "simd.sequential");
    ("omprt.sharing_shared_grants", "sharing.shared_grants");
    ("omprt.sharing_global_fallbacks", "sharing.global_fallbacks");
    ("omprt.sharing_pool_reuses", "sharing.pool_reuses");
  ]

let fold_counters t (c : Counters.t) =
  let n name v = count t name (float_of_int v) in
  count t "gpusim.lane_busy_cycles" (Counters.busy_cycles c);
  n "gpusim.warp_barriers" c.Counters.warp_barriers;
  n "gpusim.block_barriers" c.Counters.block_barriers;
  n "gpusim.global_loads" c.Counters.global_loads;
  n "gpusim.global_stores" c.Counters.global_stores;
  n "gpusim.line_hits" c.Counters.line_hits;
  n "gpusim.line_misses" c.Counters.line_misses;
  n "gpusim.l2_hits" c.Counters.l2_hits;
  n "gpusim.atomics" c.Counters.atomics;
  n "gpusim.calls" c.Counters.calls;
  List.iter
    (fun (metric, key) -> count t metric (Counters.get_extra c key))
    omprt_extras

let fold_report t (r : Gpusim.Device.report) =
  count t "gpusim.launches" 1.0;
  count t "gpusim.blocks" (float_of_int r.Gpusim.Device.grid);
  count t "gpusim.sim_cycles" r.Gpusim.Device.time_cycles;
  fold_counters t r.Gpusim.Device.counters

(* A timed device launch: its span, plus the host nanoseconds, lane-busy
   cycles and minor-heap words behind gpusim.host_ns_per_lane_cycle and
   gpusim.minor_mb_per_launch.  [report] finds the launch report in
   [f]'s result. *)
let launch t name report f =
  if not t.on then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = f () in
    let dt = now_ns () -. t0 in
    let words = Gc.minor_words () -. w0 in
    add_span t name dt 1;
    add_span t "launch.all" dt 1;
    count t "launch.minor_words" words;
    count t "launch.lane_cycles"
      (Counters.busy_cycles (report r).Gpusim.Device.counters);
    r
  end

let gpusim_host_metrics t =
  let launches = float_of_int (calls t "launch.all") in
  let lane = get_count t "launch.lane_cycles" in
  [
    ( "gpusim.host_ns_per_lane_cycle",
      if lane > 0.0 then total_ns t "launch.all" /. lane else 0.0 );
    ( "gpusim.minor_mb_per_launch",
      if launches > 0.0 then
        get_count t "launch.minor_words" *. float_of_int (Sys.word_size / 8)
        /. 1e6 /. launches
      else 0.0 );
  ]
