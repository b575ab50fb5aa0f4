(* serve-cold: the classic scheduler with the compile cache off.

   [Serve.Scheduler.run] with [cache_capacity = 0] over a seeded trace
   that alternates the [chain] template at large sizes (3k-9k IR nodes)
   with the four small catalog templates.  Every request pays a full
   compile, so host time goes to the ompir/openmp front end: the check,
   the verified pass pipeline and the staged compile.  The trace is
   shorter than the queue bound and spaced wider than the largest
   compile charge, so nothing is shed and every request completes. *)

open Serve_common

let pairs = 6
let gap = 150_000.0
let small = [| "rowsum"; "saxpy"; "stencil"; "hist" |]

(* The scheduler's defaults ([Scheduler.config_of_env] with every knob
   blank) with the cache off, spelled out so that no environment read
   can reshape the workload. *)
let conf =
  {
    Scheduler.cfg;
    queue_bound = 16;
    servers = 2;
    cache_capacity = 0;
    max_retries = 2;
    backoff = 500.0;
    breaker = 4;
    slo = None;
    window = 20_000.0;
    knobs = Offload.default_knobs;
  }

(* Every seed gives the same mix — chain sizes 250 + 100k plus a seeded
   jitter, each small template twice — so host work per trace stays
   level across seeds while contents, data and geometry change. *)
let trace ~seed =
  let g = Ompsimd_util.Prng.create ~seed:(0x5e7c01d + seed) in
  let int n = Ompsimd_util.Prng.int g n in
  List.concat
    (List.init pairs (fun k ->
         let chain =
           {
             Request.default_spec with
             Request.id = 2 * k;
             at = float_of_int (2 * k) *. gap;
             kernel = "chain";
             size = 250 + (100 * k) + int 20;
             teams = 2;
             threads = 32;
             simdlen = 8;
             seed = 1 + int 5;
           }
         in
         let small =
           {
             Request.default_spec with
             Request.id = (2 * k) + 1;
             at = float_of_int ((2 * k) + 1) *. gap;
             kernel = small.(k mod Array.length small);
             size = [| 16; 24; 32; 48 |].(int 4);
             teams = 2;
             threads = 32;
             simdlen = (if int 2 = 0 then 4 else 8);
             guardize = int 4 = 0;
             seed = 1 + int 5;
           }
         in
         [ chain; small ]))

let outcome refs (reports, metrics) =
  let failed = ref 0 and latencies = ref [] and buf = Buffer.create 4096 in
  List.iter
    (fun (r : Scheduler.rq_report) ->
      Buffer.add_string buf (Scheduler.report_line r);
      Buffer.add_char buf '\n';
      (match
         verdict refs r.Scheduler.spec r.Scheduler.outcome r.Scheduler.checksum
       with
      | Ok_output -> ()
      (* the trace is built so that every request completes *)
      | Miss | Failure -> incr failed);
      if r.Scheduler.outcome = Scheduler.Completed then
        latencies := r.Scheduler.latency :: !latencies)
    reports;
  Buffer.add_string buf (Serve.Metrics.to_json metrics);
  {
    Workload.attempted = List.length reports;
    failed = !failed;
    fingerprint = Workload.md5 (Buffer.contents buf);
    sim_cycles = metrics.Serve.Metrics.sim_cycles;
    exact = exact_of ~latencies:!latencies ~metrics;
  }

let prepare ~seed =
  let specs = trace ~seed in
  let refs = lazy (references specs) in
  let call _ =
    let result = Scheduler.run conf specs in
    fun () -> outcome (Lazy.force refs) result
  in
  let references () =
    let refs = Lazy.force refs in
    let layered layers =
      let result =
        Layers.span layers "serve.run_ms" (fun () -> Scheduler.run conf specs)
      in
      fold_metrics layers (snd result);
      (* the run compiles and launches every request once: replay each *)
      let wrong = ref 0 in
      List.iter
        (fun spec ->
          match layered_compile layers spec with
          | Error _ -> incr wrong
          | Ok compiled ->
              let report, checksum = layered_launch layers compiled spec in
              Layers.fold_report layers report;
              if not (checksum_ok refs spec checksum) then incr wrong)
        specs;
      let o = outcome refs result in
      { o with Workload.failed = o.Workload.failed + !wrong }
    in
    { Workload.reference_failures = 0; exact = []; layered }
  in
  { Workload.inputs = 1; call; references }

let workload = { Workload.name = "serve-cold"; prepare }
