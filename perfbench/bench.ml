(* The repository benchmark: one workload, one seed, one process.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Set-up generates the seeded inputs and makes the first (warm-up)
   entry call; it runs five times and setup_s is the median.  The
   references are computed next, outside set-up and outside any timer.
   With --trace 0 the entry function is then called for S seconds and
   the end-to-end metrics are printed, every host time scaled to a
   reference host speed (see calibration.ml); with --trace 1 one op is replayed
   call by call through each layer's public functions instead,
   alternating untraced and traced replays for S seconds, and the
   per-layer metrics are printed with the tracing overhead.  Every call's
   outputs are checked against the references, every exact output must
   repeat bit for bit, and the exact values are compared with those of
   earlier runs of the same binary and seed.  The last
   line of standard output is the result as one JSON object; the exit
   code is 1 when any output was wrong or any exact value drifted.
   perfbench/run.py builds this program and runs it with the library's
   environment knobs pinned. *)

let workloads =
  [ Paper_sim.workload; Serve_cold.workload; Fleet_mixed.workload ]

(* --- metrics ------------------------------------------------------------ *)

type source =
  | Measured  (** derived in [per_layer_phase] from several spans *)
  | Exact  (** a workload's exact value; 0 where it does not apply *)
  | Count  (** an exact per-op count from the traced replay *)
  | Span_ms  (** mean host ms per call of the named span *)
  | Span_us

let end_to_end =
  [
    ("setup_s", "s");
    ("host_ops_per_s", "1/s");
    ("host_call_ms_p50", "ms");
    ("host_call_ms_tail", "ms");
    ("sim_cycles_per_host_s", "1/s");
    ("heap_peak_mb", "MB");
  ]

(* The exact end-to-end values: virtual time, counts and model error.
   They repeat bit for bit for one seed, so they are guarded exactly
   (see [check_state]) rather than by a noise bound. *)
let exact_metrics =
  [
    ("vlat_p50_kticks", "kticks");
    ("vlat_p99_kticks", "kticks");
    ("slo_miss_share", "share");
    ("vrate_at_slo", "1/kticks");
    ("fail_share", "share");
    ("fig9_peak_err", "ratio");
  ]

let gpusim_counts =
  [
    "launches"; "blocks"; "sim_cycles"; "lane_busy_cycles"; "warp_barriers";
    "block_barriers"; "global_loads"; "global_stores"; "line_hits";
    "line_misses"; "l2_hits"; "atomics"; "calls";
  ]

let per_layer =
  List.map (fun (n, u) -> (n, u, Exact)) exact_metrics
  @ List.map (fun n -> ("gpusim." ^ n, "count", Count)) gpusim_counts
  @ [
      ("gpusim.host_ns_per_lane_cycle", "ns", Measured);
      ("gpusim.minor_mb_per_launch", "MB", Measured);
    ]
  @ List.map (fun (n, _) -> (n, "count", Count)) Layers.omprt_extras
  @ List.map
      (fun n -> ("workloads." ^ n ^ "_ms", "ms", Span_ms))
      [ "spmv"; "spmv_reduction"; "su3"; "ideal" ]
  @ [
      ("ompir.check_ms", "ms", Span_ms);
      ("ompir.pipeline_ms", "ms", Span_ms);
      ("ompir.pass.fold_ms", "ms", Span_ms);
      ("ompir.pass.unroll_ms", "ms", Span_ms);
      ("ompir.pass.dce_ms", "ms", Span_ms);
      ("ompir.digest_ms", "ms", Span_ms);
      ("ompir.nodes_in", "count", Count);
      ("ompir.nodes_out", "count", Count);
      ("openmp.cache_key_ms", "ms", Span_ms);
      ("openmp.compile_ms", "ms", Span_ms);
      ("openmp.compile_self_ms", "ms", Measured);
      ("openmp.launch_ms", "ms", Span_ms);
      ("serve.run_ms", "ms", Span_ms);
      ("serve.self_ms", "ms", Measured);
      ("serve.place_us", "us", Span_us);
      ("serve.traffic_gen_ms", "ms", Span_ms);
      ("serve.cache_hit_ratio", "ratio", Count);
      ("serve.memo_hit_ratio", "ratio", Count);
    ]
  @ List.map
      (fun n -> ("serve." ^ n, "count", Count))
      [
        "launches"; "batches"; "batched_requests"; "steals"; "shed_slo";
        "autoscale_grows"; "autoscale_shrinks"; "queue_max"; "retries";
      ]
  @ [ ("bench.trace_overhead_pct", "%", Measured) ]

(* --- small helpers ------------------------------------------------------ *)

let now_s () = Layers.now_ns () /. 1e9
let median xs = Ompsimd_util.Stats.median (Array.of_list xs)

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* The tail: the highest percentile with at least ten samples beyond it,
   i.e. the (n-10)th smallest sample; with ten or fewer samples, the
   largest.  Returns (value, percentile, sample count). *)
let tail samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let rank = if n > 10 then n - 10 else n in
  (a.(rank - 1), 100 * rank / n, n)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* --- the exact-repeat guard across runs ---------------------------------- *)

(* Exact values of earlier runs of this binary on this seed, one
   "name=value" line each, under .perfbench_state/ in the working
   directory.  The binary's digest is in the file name, so a rebuilt
   program starts afresh. *)
let state_dir = ".perfbench_state"

let state_file ~workload ~seed =
  let exe = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  Filename.concat state_dir
    (Printf.sprintf "%s-seed%d-%s.txt" workload seed exe)

let read_state path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.index_opt line '=' with
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.sub line (i + 1) (String.length line - i - 1) )
           | None -> None)

(* Compare [values] with the recorded ones, record the new ones, and
   return the names that drifted. *)
let check_state ~workload ~seed values =
  let path = state_file ~workload ~seed in
  let old = read_state path in
  let drifted =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k old with
        | Some v' when v' <> v -> Some k
        | _ -> None)
      values
  in
  let merged =
    values @ List.filter (fun (k, _) -> not (List.mem_assoc k values)) old
  in
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      List.iter (fun (k, v) -> Printf.fprintf oc "%s=%s\n" k v) merged);
  Sys.rename tmp path;
  drifted

(* --- output -------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && abs_float v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-34s %18.6g %s\n" name v unit)
    rows

(* --- the run ------------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable drift : string list;
  fingerprints : (int, string) Hashtbl.t;
      (** the first call's digest on each input set *)
}

let account t ?(input = 0) (o : Workload.outcome) =
  t.attempted <- t.attempted + o.Workload.attempted;
  t.failed <- t.failed + o.Workload.failed;
  match Hashtbl.find_opt t.fingerprints input with
  | None -> Hashtbl.add t.fingerprints input o.Workload.fingerprint
  | Some f ->
      if o.Workload.fingerprint <> f then t.drift <- "outputs" :: t.drift

(* [s] host seconds scaled to the reference host speed by a calibration
   loop run right after them; also returns the loop's milliseconds. *)
let calibrated s =
  let cal = Calibration.ms () in
  (s *. Calibration.reference_ms /. cal, cal)

(* Call the entry function for [seconds], rotating over the input sets. *)
let end_to_end_phase t (prepared : Workload.prepared) ~seconds ~setup_s =
  let deadline = now_s () +. float_of_int seconds in
  let calls = ref [] and raw = ref [] and cals = ref [] in
  let cycles = ref 0.0 in
  while now_s () < deadline || !calls = [] do
    let input = List.length !calls mod prepared.Workload.inputs in
    let check, dt = timed (fun () -> prepared.Workload.call input) in
    let s, cal = calibrated dt in
    calls := s :: !calls;
    raw := dt :: !raw;
    cals := cal :: !cals;
    let o = check () in
    cycles := !cycles +. o.Workload.sim_cycles;
    account t ~input o
  done;
  let busy = List.fold_left ( +. ) 0.0 !calls in
  let ms = List.map (fun s -> s *. 1000.0) !calls in
  let tail_ms, tail_pct, n = tail ms in
  Printf.printf "  host_call_ms_tail is p%d of %d calls\n" tail_pct n;
  Printf.printf
    "  host times are scaled to a %.0f ms calibration loop: raw call median \
     %.3f ms, calibration median %.3f ms\n"
    Calibration.reference_ms
    (1000.0 *. median !raw)
    (median !cals);
  [
    ("setup_s", setup_s);
    ("host_ops_per_s", float_of_int t.attempted /. busy);
    ("host_call_ms_p50", median ms);
    ("host_call_ms_tail", tail_ms);
    ("sim_cycles_per_host_s", !cycles /. busy);
    ("heap_peak_mb", heap_peak_mb ());
  ]
  |> List.map (fun (name, v) -> (name, List.assoc name end_to_end, v))

(* Alternate untraced and traced replays of input set 0 for [seconds].
   Returns the per-layer values and the exact per-op counts. *)
let per_layer_phase t (checked : Workload.checked) ~seconds ~exact =
  let deadline = now_s () +. float_of_int seconds in
  let plain = Layers.create ~on:false and total = Layers.create ~on:true in
  let first_op = ref None and untraced = ref [] and traced = ref [] in
  let traced_op () =
    let op = Layers.create ~on:true in
    let o, dt = timed (fun () -> checked.Workload.layered op) in
    traced := dt :: !traced;
    account t o;
    (match !first_op with
    | None -> first_op := Some op
    | Some f ->
        if not (Layers.same_counts f op) then t.drift <- "counts" :: t.drift);
    Layers.merge_into ~dst:total op
  in
  let untraced_op () =
    let o, dt = timed (fun () -> checked.Workload.layered plain) in
    untraced := dt :: !untraced;
    account t o
  in
  let i = ref 0 in
  while now_s () < deadline || !traced = [] do
    if !i mod 2 = 0 then (untraced_op (); traced_op ())
    else (traced_op (); untraced_op ());
    incr i
  done;
  Printf.printf "  %d traced and %d untraced replays\n" (List.length !traced)
    (List.length !untraced);
  let op = Option.get !first_op in
  let ms = Layers.mean_ms total in
  let runs = Layers.calls total "serve.run_ms" in
  let measured =
    Layers.gpusim_host_metrics total
    @ [
        ( "openmp.compile_self_ms",
          ms "openmp.compile_ms" -. ms "ompir.check_ms"
          -. ms "ompir.pipeline_ms" );
        ( "serve.self_ms",
          if runs = 0 then 0.0
          else
            (Layers.total_ns total "serve.run_ms"
            -. Layers.total_ns total "openmp.compile_ms"
            -. Layers.total_ns total "openmp.launch_ms")
            /. float_of_int runs /. 1e6 );
        ( "bench.trace_overhead_pct",
          100.0 *. ((median !traced /. median !untraced) -. 1.0) );
      ]
  in
  let value name = function
    | Exact -> exact name
    | Count -> Layers.get_count op name
    | Span_ms -> ms name
    | Span_us -> ms name *. 1000.0
    | Measured -> List.assoc name measured
  in
  ( List.map
      (fun (name, unit, source) -> (name, unit, value name source))
      per_layer,
    List.filter_map
      (fun (name, _, source) ->
        if source = Count then Some (name, Layers.get_count op name) else None)
      per_layer )

let run ~(workload : Workload.t) ~seed ~seconds ~trace =
  Printf.printf "perfbench: workload %s, seed %d, %d s, trace %d\n%!"
    workload.Workload.name seed seconds trace;
  (* set-up: the seeded inputs and the first (warm-up) entry call; the
     first set-up is kept, the four repeats only timed *)
  let setup () =
    let r, dt =
      timed (fun () ->
          let p = workload.Workload.prepare ~seed in
          (p, p.Workload.call 0))
    in
    (r, fst (calibrated dt))
  in
  let (prepared, first_check), s0 = setup () in
  let setup_s = median (s0 :: List.init 4 (fun _ -> snd (setup ()))) in
  let checked = prepared.Workload.references () in
  let first = first_check () in
  (* the references' garbage must not weigh on the timed phase *)
  Gc.compact ();
  let t =
    { attempted = 0; failed = 0; drift = []; fingerprints = Hashtbl.create 8 }
  in
  Hashtbl.add t.fingerprints 0 first.Workload.fingerprint;
  let given = first.Workload.exact @ checked.Workload.exact in
  let exact name =
    if name = "fail_share" then
      if checked.Workload.reference_failures > 0 then 1.0
      else if t.attempted = 0 then 0.0
      else float_of_int t.failed /. float_of_int t.attempted
    else Option.value ~default:0.0 (List.assoc_opt name given)
  in
  let metrics, counts =
    if trace = 0 then (end_to_end_phase t prepared ~seconds ~setup_s, [])
    else per_layer_phase t checked ~seconds ~exact
  in
  if checked.Workload.reference_failures > 0 then t.failed <- t.attempted;
  (* the exact-repeat guard across runs of this binary and seed *)
  let recorded =
    Hashtbl.fold
      (fun k f acc -> (Printf.sprintf "fingerprint.%d" k, f) :: acc)
      t.fingerprints []
    @ List.filter_map
        (fun (name, _) ->
          if name = "fail_share" then None
          else Some (name, Printf.sprintf "%h" (exact name)))
        exact_metrics
    @ List.map (fun (name, v) -> (name, Printf.sprintf "%h" v)) counts
  in
  let drift =
    List.sort_uniq compare
      (t.drift
      @ check_state ~workload:workload.Workload.name ~seed recorded
      )
  in
  if trace = 0 then
    print_table "exact (virtual time, counts, model error)"
      (List.map (fun (name, unit) -> (name, unit, exact name)) exact_metrics);
  List.iter
    (Printf.printf "DRIFT: %s changed since an earlier call or run\n")
    drift;
  if t.failed > 0 then
    Printf.printf "FAILED: %d wrong or lost outputs\n" t.failed;
  let correct = t.failed = 0 && drift = [] in
  print_table (if trace = 0 then "end-to-end" else "per-layer") metrics;
  print_result ~correct ~attempted:t.attempted ~failed:t.failed metrics;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME paper-sim, serve-cold or fleet-mixed" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let named (w : Workload.t) = w.Workload.name = !workload in
  match List.find_opt named workloads with
  | None ->
      Printf.eprintf "unknown workload %S\n" !workload;
      exit 2
  | Some _ when (!trace <> 0 && !trace <> 1) || !seconds < 1 ->
      prerr_endline "--trace must be 0 or 1 and --seconds at least 1";
      exit 2
  | Some w ->
      run ~workload:w ~seed:!seed ~seconds:!seconds ~trace:!trace
